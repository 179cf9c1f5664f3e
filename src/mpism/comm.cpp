#include "mpism/comm.hpp"

#include <numeric>
#include <string>

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

void CommTable::invalid_comm(CommId id) {
  detail::check_failed("valid(id)", __FILE__, __LINE__,
                       "invalid communicator " + std::to_string(id));
}

void CommTable::rank_out_of_range(CommId id, Rank rank) {
  detail::check_failed("rank in range", __FILE__, __LINE__,
                       "rank " + std::to_string(rank) +
                           " out of range for communicator " +
                           std::to_string(id));
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
