#include "mpism/comm.hpp"

#include <numeric>

#include "common/check.hpp"

namespace dampi::mpism {

void CommTable::init(int nprocs) {
  DAMPI_CHECK(nprocs > 0);
  world_size_ = nprocs;
  count_ = 0;
  const CommId id = create({}, /*tool_internal=*/false);
  DAMPI_CHECK(id == kCommWorld);
  CommRecord& world = *comms_.front();
  world.members.resize(static_cast<std::size_t>(nprocs));
  std::iota(world.members.begin(), world.members.end(), 0);
  std::iota(world.world_to_comm.begin(), world.world_to_comm.end(), 0);
}

const CommRecord& CommTable::get(CommId id) const {
  DAMPI_CHECK_MSG(valid(id), "invalid communicator " + std::to_string(id));
  return *comms_[static_cast<std::size_t>(id)];
}

bool CommTable::valid(CommId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < count_ &&
         !comms_[static_cast<std::size_t>(id)]->freed;
}

CommId CommTable::create(std::span<const Rank> members, bool tool_internal) {
  if (count_ == comms_.size()) comms_.push_back(std::make_unique<CommRecord>());
  CommRecord& rec = *comms_[count_];
  rec.id = static_cast<CommId>(count_++);
  rec.freed = false;
  rec.tool_internal = tool_internal;
  rec.world_to_comm.assign(static_cast<std::size_t>(world_size_), kAnySource);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Rank w = members[i];
    DAMPI_CHECK(w >= 0 && w < world_size_);
    rec.world_to_comm[static_cast<std::size_t>(w)] = static_cast<Rank>(i);
  }
  rec.members.assign(members.begin(), members.end());
  return rec.id;
}

void CommTable::free(CommId id) {
  DAMPI_CHECK_MSG(id != kCommWorld, "cannot free MPI_COMM_WORLD");
  DAMPI_CHECK_MSG(valid(id), "double free of communicator");
  comms_[static_cast<std::size_t>(id)]->freed = true;
}

void CommTable::mark_tool_internal(CommId id) {
  DAMPI_CHECK(valid(id));
  comms_[static_cast<std::size_t>(id)]->tool_internal = true;
}

Rank CommTable::to_world(CommId id, Rank rel) const {
  if (rel == kAnySource) return kAnySource;
  const CommRecord& rec = get(id);
  DAMPI_CHECK_MSG(rel >= 0 && rel < rec.size(),
                  "rank out of range for communicator");
  return rec.members[static_cast<std::size_t>(rel)];
}

Rank CommTable::to_rel(CommId id, Rank world) const {
  if (world == kAnySource) return kAnySource;
  const CommRecord& rec = get(id);
  DAMPI_CHECK(world >= 0 && world < world_size_);
  return rec.world_to_comm[static_cast<std::size_t>(world)];
}

int CommTable::leaked_user_comms() const {
  int leaks = 0;
  for (std::size_t i = 1; i < count_; ++i) {
    const CommRecord& rec = *comms_[i];
    if (rec.tool_internal || rec.freed) continue;
    ++leaks;
  }
  return leaks;
}

}  // namespace dampi::mpism
