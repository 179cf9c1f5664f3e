#include "mpism/proc.hpp"

#include "common/check.hpp"
#include "mpism/engine.hpp"

namespace dampi::mpism {

int Proc::size() const { return engine_->world_size(); }

Rank Proc::comm_rank(CommId comm) const {
  return engine_->comm_rank_of(comm, world_rank_);
}

int Proc::comm_size(CommId comm) const { return engine_->comm_size_of(comm); }

RequestId Proc::isend(Rank dst, Tag tag, Bytes payload, CommId comm) {
  return engine_->api_isend(world_rank_, dst, tag, std::move(payload), comm,
                            /*blocking=*/false, /*synchronous=*/false);
}

RequestId Proc::irecv(Rank src, Tag tag, CommId comm) {
  return engine_->api_irecv(world_rank_, src, tag, comm, /*blocking=*/false);
}

void Proc::send(Rank dst, Tag tag, Bytes payload, CommId comm) {
  engine_->api_send(world_rank_, dst, tag, std::move(payload), comm);
}

RequestId Proc::issend(Rank dst, Tag tag, Bytes payload, CommId comm) {
  return engine_->api_isend(world_rank_, dst, tag, std::move(payload), comm,
                            /*blocking=*/false, /*synchronous=*/true);
}

void Proc::ssend(Rank dst, Tag tag, Bytes payload, CommId comm) {
  const RequestId req = engine_->api_isend(world_rank_, dst, tag,
                                           std::move(payload), comm,
                                           /*blocking=*/true,
                                           /*synchronous=*/true);
  engine_->api_wait(world_rank_, req, nullptr, /*count_stat=*/false);
}

Status Proc::sendrecv(Rank dst, Tag send_tag, Bytes payload, Rank src,
                      Tag recv_tag, Bytes* out, CommId comm) {
  const RequestId recv_req =
      engine_->api_irecv(world_rank_, src, recv_tag, comm, /*blocking=*/true);
  engine_->api_send(world_rank_, dst, send_tag, std::move(payload), comm);
  return engine_->api_wait(world_rank_, recv_req, out, /*count_stat=*/false);
}

Status Proc::recv(Rank src, Tag tag, Bytes* out, CommId comm) {
  return engine_->api_recv(world_rank_, src, tag, comm, out);
}

Status Proc::wait(RequestId req, Bytes* out) {
  return engine_->api_wait(world_rank_, req, out, /*count_stat=*/true);
}

bool Proc::test(RequestId req, Status* status, Bytes* out) {
  return engine_->api_test(world_rank_, req, status, out);
}

void Proc::waitall(std::span<RequestId> reqs) {
  engine_->api_waitall(world_rank_, reqs);
}

std::size_t Proc::waitany(std::span<RequestId> reqs, Status* status,
                          Bytes* out) {
  return engine_->api_waitany(world_rank_, reqs, status, out);
}

bool Proc::testall(std::span<RequestId> reqs) {
  return engine_->api_testall(world_rank_, reqs);
}

std::size_t Proc::testany(std::span<RequestId> reqs, Status* status,
                          Bytes* out) {
  return engine_->api_testany(world_rank_, reqs, status, out);
}

Status Proc::probe(Rank src, Tag tag, CommId comm) {
  return engine_->api_probe(world_rank_, src, tag, comm, /*flag=*/nullptr);
}

bool Proc::iprobe(Rank src, Tag tag, Status* status, CommId comm) {
  bool flag = false;
  Status st = engine_->api_probe(world_rank_, src, tag, comm, &flag);
  if (flag && status != nullptr) *status = st;
  return flag;
}

void Proc::barrier(CommId comm) {
  engine_->api_collective(world_rank_, CollKind::kBarrier, comm, 0, {});
}

void Proc::bcast(Bytes* data, Rank root, CommId comm) {
  DAMPI_CHECK(data != nullptr);
  CollUserData in;
  if (comm_rank(comm) == root) in.single = std::move(*data);
  CollUserResult out = engine_->api_collective(world_rank_, CollKind::kBcast,
                                               comm, root, std::move(in));
  *data = std::move(out.single);
}

Bytes Proc::reduce(const Bytes& contribution, ReduceOp op, Rank root,
                   CommId comm) {
  CollUserData in;
  in.single = contribution;
  in.op = op;
  CollUserResult out = engine_->api_collective(world_rank_, CollKind::kReduce,
                                               comm, root, std::move(in));
  return std::move(out.single);
}

Bytes Proc::allreduce(const Bytes& contribution, ReduceOp op, CommId comm) {
  CollUserData in;
  in.single = contribution;
  in.op = op;
  CollUserResult out = engine_->api_collective(
      world_rank_, CollKind::kAllreduce, comm, 0, std::move(in));
  return std::move(out.single);
}

std::vector<Bytes> Proc::gather(const Bytes& contribution, Rank root,
                                CommId comm) {
  CollUserData in;
  in.single = contribution;
  CollUserResult out = engine_->api_collective(world_rank_, CollKind::kGather,
                                               comm, root, std::move(in));
  return std::move(out.multi);
}

Bytes Proc::scatter(std::vector<Bytes> slices_at_root, Rank root,
                    CommId comm) {
  CollUserData in;
  if (comm_rank(comm) == root) in.multi = std::move(slices_at_root);
  CollUserResult out = engine_->api_collective(world_rank_, CollKind::kScatter,
                                               comm, root, std::move(in));
  return std::move(out.single);
}

std::vector<Bytes> Proc::allgather(const Bytes& contribution, CommId comm) {
  CollUserData in;
  in.single = contribution;
  CollUserResult out = engine_->api_collective(
      world_rank_, CollKind::kAllgather, comm, 0, std::move(in));
  return std::move(out.multi);
}

std::vector<Bytes> Proc::alltoall(std::vector<Bytes> in_slices, CommId comm) {
  CollUserData in;
  in.multi = std::move(in_slices);
  CollUserResult out = engine_->api_collective(world_rank_, CollKind::kAlltoall,
                                               comm, 0, std::move(in));
  return std::move(out.multi);
}

std::uint64_t Proc::allreduce_u64(std::uint64_t value, ReduceOp op,
                                  CommId comm) {
  return unpack<std::uint64_t>(allreduce(pack(value), op, comm));
}

double Proc::allreduce_f64(double value, ReduceOp op, CommId comm) {
  return unpack<double>(allreduce(pack(value), op, comm));
}

CommId Proc::comm_dup(CommId comm) {
  CollUserResult out =
      engine_->api_collective(world_rank_, CollKind::kCommDup, comm, 0, {});
  return out.new_comm;
}

CommId Proc::comm_split(int color, int key, CommId comm) {
  CollUserData in;
  in.color = color;
  in.key = key;
  CollUserResult out = engine_->api_collective(
      world_rank_, CollKind::kCommSplit, comm, 0, std::move(in));
  return out.new_comm;
}

void Proc::comm_free(CommId comm) { engine_->api_comm_free(world_rank_, comm); }

void Proc::pcontrol(int level, const std::string& what) {
  engine_->api_pcontrol(world_rank_, level, what);
}

void Proc::compute(double us) { engine_->api_compute(world_rank_, us); }

void Proc::fail(const std::string& message) {
  engine_->api_fail(world_rank_, message);
}

void Proc::require(bool condition, const std::string& message) {
  if (!condition) fail(message);
}

}  // namespace dampi::mpism
