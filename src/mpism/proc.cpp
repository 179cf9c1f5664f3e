#include "mpism/proc.hpp"

#include "common/check.hpp"
#include "mpism/engine.hpp"

namespace dampi::mpism {

int Proc::size() const { return engine_->world_size(); }

Rank Proc::comm_rank(CommId comm) const {
  return engine_->comm_rank_of(comm, world_rank_);
}

int Proc::comm_size(CommId comm) const { return engine_->comm_size_of(comm); }

// Every engine call below is followed by unwind_if_stopped(): a call of a
// stopped run returns a placeholder at once, and the program unwinds from
// here (see AbortRun in engine.hpp).

void Proc::unwind_if_stopped() const {
  if (engine_->stopped()) throw AbortRun{};
}

RequestId Proc::isend(Rank dst, Tag tag, Bytes payload, CommId comm) {
  const RequestId req =
      engine_->api_isend(world_rank_, dst, tag, std::move(payload), comm,
                         /*blocking=*/false, /*synchronous=*/false);
  unwind_if_stopped();
  return req;
}

RequestId Proc::irecv(Rank src, Tag tag, CommId comm) {
  const RequestId req =
      engine_->api_irecv(world_rank_, src, tag, comm, /*blocking=*/false);
  unwind_if_stopped();
  return req;
}

void Proc::send(Rank dst, Tag tag, Bytes payload, CommId comm) {
  engine_->api_send(world_rank_, dst, tag, std::move(payload), comm);
  unwind_if_stopped();
}

RequestId Proc::issend(Rank dst, Tag tag, Bytes payload, CommId comm) {
  const RequestId req =
      engine_->api_isend(world_rank_, dst, tag, std::move(payload), comm,
                         /*blocking=*/false, /*synchronous=*/true);
  unwind_if_stopped();
  return req;
}

void Proc::ssend(Rank dst, Tag tag, Bytes payload, CommId comm) {
  const RequestId req = engine_->api_isend(world_rank_, dst, tag,
                                           std::move(payload), comm,
                                           /*blocking=*/true,
                                           /*synchronous=*/true);
  unwind_if_stopped();
  engine_->api_wait(world_rank_, req, nullptr, /*count_stat=*/false);
  unwind_if_stopped();
}

Status Proc::sendrecv(Rank dst, Tag send_tag, Bytes payload, Rank src,
                      Tag recv_tag, Bytes* out, CommId comm) {
  const RequestId recv_req =
      engine_->api_irecv(world_rank_, src, recv_tag, comm, /*blocking=*/true);
  unwind_if_stopped();
  engine_->api_send(world_rank_, dst, send_tag, std::move(payload), comm);
  unwind_if_stopped();
  const Status status =
      engine_->api_wait(world_rank_, recv_req, out, /*count_stat=*/false);
  unwind_if_stopped();
  return status;
}

Status Proc::recv(Rank src, Tag tag, Bytes* out, CommId comm) {
  const Status status = engine_->api_recv(world_rank_, src, tag, comm, out);
  unwind_if_stopped();
  return status;
}

Status Proc::wait(RequestId req, Bytes* out) {
  const Status status =
      engine_->api_wait(world_rank_, req, out, /*count_stat=*/true);
  unwind_if_stopped();
  return status;
}

bool Proc::test(RequestId req, Status* status, Bytes* out) {
  const bool done = engine_->api_test(world_rank_, req, status, out);
  unwind_if_stopped();
  return done;
}

void Proc::waitall(std::span<RequestId> reqs) {
  engine_->api_waitall(world_rank_, reqs);
  unwind_if_stopped();
}

std::size_t Proc::waitany(std::span<RequestId> reqs, Status* status,
                          Bytes* out) {
  const std::size_t index =
      engine_->api_waitany(world_rank_, reqs, status, out);
  unwind_if_stopped();
  return index;
}

bool Proc::testall(std::span<RequestId> reqs) {
  const bool done = engine_->api_testall(world_rank_, reqs);
  unwind_if_stopped();
  return done;
}

std::size_t Proc::testany(std::span<RequestId> reqs, Status* status,
                          Bytes* out) {
  const std::size_t index =
      engine_->api_testany(world_rank_, reqs, status, out);
  unwind_if_stopped();
  return index;
}

Status Proc::probe(Rank src, Tag tag, CommId comm) {
  const Status status =
      engine_->api_probe(world_rank_, src, tag, comm, /*flag=*/nullptr);
  unwind_if_stopped();
  return status;
}

bool Proc::iprobe(Rank src, Tag tag, Status* status, CommId comm) {
  bool flag = false;
  Status st = engine_->api_probe(world_rank_, src, tag, comm, &flag);
  unwind_if_stopped();
  if (flag && status != nullptr) *status = st;
  return flag;
}

CollUserResult Proc::collective(CollKind kind, CommId comm, Rank root,
                                CollUserData data) {
  CollUserResult out =
      engine_->api_collective(world_rank_, kind, comm, root, std::move(data));
  unwind_if_stopped();
  return out;
}

void Proc::barrier(CommId comm) { collective(CollKind::kBarrier, comm, 0, {}); }

void Proc::bcast(Bytes* data, Rank root, CommId comm) {
  DAMPI_CHECK(data != nullptr);
  CollUserData in;
  if (comm_rank(comm) == root) in.single = std::move(*data);
  *data = collective(CollKind::kBcast, comm, root, std::move(in)).single;
}

Bytes Proc::reduce(const Bytes& contribution, ReduceOp op, Rank root,
                   CommId comm) {
  CollUserData in;
  in.single = contribution;
  in.op = op;
  return collective(CollKind::kReduce, comm, root, std::move(in)).single;
}

Bytes Proc::allreduce(const Bytes& contribution, ReduceOp op, CommId comm) {
  CollUserData in;
  in.single = contribution;
  in.op = op;
  return collective(CollKind::kAllreduce, comm, 0, std::move(in)).single;
}

std::vector<Bytes> Proc::gather(const Bytes& contribution, Rank root,
                                CommId comm) {
  CollUserData in;
  in.single = contribution;
  return collective(CollKind::kGather, comm, root, std::move(in)).multi;
}

Bytes Proc::scatter(std::vector<Bytes> slices_at_root, Rank root,
                    CommId comm) {
  CollUserData in;
  if (comm_rank(comm) == root) in.multi = std::move(slices_at_root);
  return collective(CollKind::kScatter, comm, root, std::move(in)).single;
}

std::vector<Bytes> Proc::allgather(const Bytes& contribution, CommId comm) {
  CollUserData in;
  in.single = contribution;
  return collective(CollKind::kAllgather, comm, 0, std::move(in)).multi;
}

std::vector<Bytes> Proc::alltoall(std::vector<Bytes> in_slices, CommId comm) {
  CollUserData in;
  in.multi = std::move(in_slices);
  return collective(CollKind::kAlltoall, comm, 0, std::move(in)).multi;
}

std::uint64_t Proc::allreduce_u64(std::uint64_t value, ReduceOp op,
                                  CommId comm) {
  return unpack<std::uint64_t>(allreduce(pack(value), op, comm));
}

double Proc::allreduce_f64(double value, ReduceOp op, CommId comm) {
  return unpack<double>(allreduce(pack(value), op, comm));
}

CommId Proc::comm_dup(CommId comm) {
  return collective(CollKind::kCommDup, comm, 0, {}).new_comm;
}

CommId Proc::comm_split(int color, int key, CommId comm) {
  CollUserData in;
  in.color = color;
  in.key = key;
  return collective(CollKind::kCommSplit, comm, 0, std::move(in)).new_comm;
}

void Proc::comm_free(CommId comm) {
  engine_->api_comm_free(world_rank_, comm);
  unwind_if_stopped();
}

void Proc::pcontrol(int level, const std::string& what) {
  engine_->api_pcontrol(world_rank_, level, what);
  unwind_if_stopped();
}

void Proc::compute(double us) {
  engine_->api_compute(world_rank_, us);
  unwind_if_stopped();
}

void Proc::fail(const std::string& message) {
  engine_->api_fail(world_rank_, message);
}

void Proc::require(bool condition, const std::string& message) {
  if (!condition) fail(message);
}

}  // namespace dampi::mpism
