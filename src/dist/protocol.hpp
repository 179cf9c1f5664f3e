// Wire protocol between a coordinator — a campaign's or a fault
// sweep's — and its worker processes (DESIGN.md §4.12).
//
// Transport: one AF_UNIX socketpair per worker. The coordinator spawns
// every worker itself and the worker inherits its end across exec
// (`--coordinator-socket fd:N`); there is no listener, so only the
// process the coordinator spawned for a slot can ever speak for it.
//
// Framing: little machine-endian binary header {magic "DMP1", u16 type,
// u32 payload length} followed by the payload. Payloads are the same
// line-oriented, versioned text formats the rest of the tree uses —
// shard payloads embed a checkpoint journal verbatim, result payloads
// embed one by byte length — so every message is inspectable with
// nothing fancier than cat.
//
// Conversation of a campaign:
//   worker     -> coordinator   HELLO   {worker id, options fingerprint}
//   coordinator-> worker        SHARD   {shard id, checkpoint}
//   worker     -> coordinator   ESCAPE  {candidate shard checkpoint}
//   worker     -> coordinator   RESULT  {shard id, counters, bugs,
//                                        metrics, checkpoint}
//   coordinator-> worker        STEAL   (carve off frontier work)
//   worker     -> coordinator   STOLEN  {checkpoint} | NO_STEAL
//   coordinator-> worker        CANCEL  (unwind the in-flight shard)
//   coordinator-> worker        SHUTDOWN
// and of a fault sweep (the same pool, HELLO carrying the sweep
// fingerprint):
//   coordinator-> worker        PLAN    {a batch: plan index and
//                                        canonical fault spec, per plan}
//   worker     -> coordinator   RESULT  {metrics, sweep journal holding
//                                        a record per plan, less those a
//                                        CANCEL interrupted}
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/explorer.hpp"

namespace dampi::dist {

enum class MsgType : std::uint16_t {
  kHello = 1,
  kShard = 2,
  kResult = 3,
  kSteal = 4,
  kStolen = 5,
  kNoSteal = 6,
  kCancel = 7,
  kShutdown = 8,
  /// Worker -> coordinator, sent eagerly the moment an alternative is
  /// escaped (before the revealing run can reach the worker's journal),
  /// so a worker death never strands an escape. Payload: the candidate
  /// shard checkpoint (see serialize_escape).
  kEscape = 9,
  /// Coordinator -> sweep worker: one fault plan to run (PlanTask).
  kPlan = 10,
};

struct WireMessage {
  MsgType type = MsgType::kHello;
  std::string payload;
};

/// Buffered, framed message stream over a connected fd. Not thread-safe;
/// each endpoint owns its channel on one thread.
class MessageChannel {
 public:
  enum class RecvStatus { kMessage, kWouldBlock, kClosed };

  MessageChannel() = default;
  explicit MessageChannel(int fd) : fd_(fd) {}
  ~MessageChannel() { close(); }
  MessageChannel(const MessageChannel&) = delete;
  MessageChannel& operator=(const MessageChannel&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void close();

  /// Writes the whole frame (retrying short writes). False on error —
  /// typically EPIPE from a dead peer.
  bool send(MsgType type, std::string_view payload);

  /// timeout_ms < 0 blocks until a full message or EOF; 0 polls;
  /// > 0 waits at most that long. kWouldBlock means "no complete frame
  /// yet", kClosed means EOF or a framing/IO error (channel unusable).
  RecvStatus recv(WireMessage* out, int timeout_ms);

 private:
  int fd_ = -1;
  std::string rx_;
};

/// The descriptor N of an "fd:N" spec: the worker's end of the
/// socketpair it inherited from the coordinator. Anything else — empty,
/// trailing junk, a negative N, a path — returns -1 and sets `error`
/// (naming the spec).
int connect_socket(const std::string& spec, std::string* error);

// --- Payload formats -------------------------------------------------------

struct Hello {
  int worker_id = -1;
  /// options_fingerprint() — single-line by construction, same as the
  /// checkpoint format's `options` line.
  std::string fingerprint;
};

std::string serialize_hello(const Hello& hello);
std::optional<Hello> parse_hello(const std::string& payload,
                                 std::string* error);

/// SHARD / STOLEN payload: a shard id line plus a checkpoint journal.
std::string serialize_shard(std::uint64_t shard_id,
                            const std::string& checkpoint_text);
std::optional<core::Checkpoint> parse_shard(
    const std::string& payload, const std::string& expected_fingerprint,
    std::uint64_t* shard_id, std::string* error);

/// ESCAPE payload: the escaped alternative packaged as the candidate
/// shard it would become (make_escape_shard), because its site identity
/// is the frame prefix in force at escape time — nothing the coordinator
/// could reconstruct from the shard it originally assigned.
std::string serialize_escape(const core::EscapedAlt& escape,
                             const std::string& fingerprint);
std::optional<core::EscapedAlt> parse_escape(
    const std::string& payload, const std::string& expected_fingerprint,
    std::string* error);

/// One plan of a PLAN payload: a `plan <index> <canonical fault spec>`
/// line. A payload lists one batch of plans, a line each, in the order
/// given (at least one, no index twice).
struct PlanTask {
  std::uint64_t index = 0;
  std::string spec;
};

std::string serialize_plan(const std::vector<PlanTask>& plans);
std::optional<std::vector<PlanTask>> parse_plan(const std::string& payload,
                                                std::string* error);

/// A sweep worker's RESULT for one PLAN: the sweep journal holding a
/// record for each of its plans (none for a plan a CANCEL interrupted),
/// embedded by byte length (the sweep library parses it), and the worker
/// registry's increment over the batch, so a sweep's --metrics counts
/// the same at any worker count.
struct PlanResult {
  std::string journal;
  std::string metrics_dump;
};

std::string serialize_plan_result(const PlanResult& result);
std::optional<PlanResult> parse_plan_result(const std::string& payload,
                                            std::string* error);

/// Everything one shard walk sends home. `result` carries the subset of
/// ExploreResult a merge consumes (counts, bugs, alerts, pool counters,
/// partial-coverage flags); discovery-run statistics stay zero — only
/// the coordinator executed a discovery run. Escapes never ride here:
/// they went out eagerly as ESCAPE messages during the walk.
struct WorkerResult {
  std::uint64_t shard_id = 0;
  core::ExploreResult result;
  std::string metrics_dump;  ///< obs registry increment for this shard
};

std::string serialize_worker_result(const WorkerResult& result,
                                    const std::string& fingerprint);
std::optional<WorkerResult> parse_worker_result(
    const std::string& payload, const std::string& expected_fingerprint,
    std::string* error);

}  // namespace dampi::dist
