#include "dist/protocol.hpp"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <sstream>

#include <poll.h>
#include <unistd.h>

#include "common/line_record.hpp"
#include "common/strutil.hpp"
#include "core/shard.hpp"

namespace dampi::dist {

namespace {

constexpr char kMagic[4] = {'D', 'M', 'P', '1'};
constexpr std::size_t kHeaderBytes = 4 + 2 + 4;
/// Backstop against a corrupt length field; real payloads are a few KB.
constexpr std::uint32_t kMaxPayload = 64u * 1024u * 1024u;

constexpr const char* kResultHeader = "# dampi-dist-result v1";
constexpr const char* kPlanResultHeader = "# dampi-dist-plan-result v1";

/// A registry dump as `metric <name> <value>` lines.
void append_metric_lines(const std::string& dump, std::string* out) {
  std::istringstream metrics(dump);
  std::string line;
  while (std::getline(metrics, line)) {
    if (!line.empty()) *out += "metric " + line + '\n';
  }
}

/// Appends a `metric` line's dump line to *dump.
void read_metric_line(LineFields& f, std::string* dump) {
  if (f.rest().empty()) return;
  *dump += f.rest();
  *dump += '\n';
}

bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void MessageChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
}

bool MessageChannel::send(MsgType type, std::string_view payload) {
  if (fd_ < 0) return false;
  char header[kHeaderBytes];
  std::memcpy(header, kMagic, 4);
  const std::uint16_t t = static_cast<std::uint16_t>(type);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(header + 4, &t, 2);
  std::memcpy(header + 6, &len, 4);
  return write_all(fd_, header, kHeaderBytes) &&
         write_all(fd_, payload.data(), payload.size());
}

MessageChannel::RecvStatus MessageChannel::recv(WireMessage* out,
                                                int timeout_ms) {
  if (fd_ < 0) return RecvStatus::kClosed;
  // A positive timeout bounds the whole call, not each poll: partial
  // reads and EINTR wake-ups spend the remaining budget, not a fresh one.
  using Clock = std::chrono::steady_clock;
  Clock::time_point deadline{};
  if (timeout_ms > 0) {
    deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  }
  for (;;) {
    // A complete frame may already be buffered from a previous read.
    if (rx_.size() >= kHeaderBytes) {
      if (std::memcmp(rx_.data(), kMagic, 4) != 0) {
        close();
        return RecvStatus::kClosed;
      }
      std::uint16_t t = 0;
      std::uint32_t len = 0;
      std::memcpy(&t, rx_.data() + 4, 2);
      std::memcpy(&len, rx_.data() + 6, 4);
      if (len > kMaxPayload) {
        close();
        return RecvStatus::kClosed;
      }
      if (rx_.size() >= kHeaderBytes + len) {
        out->type = static_cast<MsgType>(t);
        out->payload = rx_.substr(kHeaderBytes, len);
        rx_.erase(0, kHeaderBytes + len);
        return RecvStatus::kMessage;
      }
    }

    int wait_ms = timeout_ms;
    if (timeout_ms > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return RecvStatus::kWouldBlock;
      wait_ms = static_cast<int>(left);
    }
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      close();
      return RecvStatus::kClosed;
    }
    if (pr == 0) return RecvStatus::kWouldBlock;

    char buf[16384];
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return RecvStatus::kWouldBlock;
      }
      close();
      return RecvStatus::kClosed;
    }
    if (n == 0) {
      // EOF with a partial frame buffered is a dead peer either way.
      close();
      return RecvStatus::kClosed;
    }
    rx_.append(buf, static_cast<std::size_t>(n));
    // Loop back to try extracting a frame; with timeout 0 this still
    // returns kWouldBlock promptly once the buffer runs dry.
  }
}

int connect_socket(const std::string& spec, std::string* error) {
  int fd = -1;
  if (spec.rfind("fd:", 0) == 0) {
    const char* first = spec.data() + 3;
    const char* last = spec.data() + spec.size();
    const auto [ptr, ec] = std::from_chars(first, last, fd);
    if (ec == std::errc() && ptr == last && fd >= 0) return fd;
  }
  if (error != nullptr) {
    *error = "bad coordinator socket spec '" + spec + "': want fd:N";
  }
  return -1;
}

// --- Payloads --------------------------------------------------------------

std::string serialize_hello(const Hello& hello) {
  return strfmt("id %d\n", hello.worker_id) + "options " + hello.fingerprint +
         '\n';
}

std::optional<Hello> parse_hello(const std::string& payload,
                                 std::string* error) {
  Hello hello;
  LineReader in(payload);
  while (in.next()) {
    if (in.keyword() == "options") {
      hello.fingerprint = in.fields().rest();
    } else if (in.keyword() != "id" ||
               !in.fields().read_exactly(&hello.worker_id)) {
      return refuse(error, in.at("bad hello line"));
    }
  }
  if (hello.worker_id < 0 || hello.fingerprint.empty()) {
    return refuse(error, "incomplete hello");
  }
  return hello;
}

std::string serialize_shard(std::uint64_t shard_id,
                            const std::string& checkpoint_text) {
  return strfmt("shard %llu\n", static_cast<unsigned long long>(shard_id)) +
         checkpoint_text;
}

std::optional<core::Checkpoint> parse_shard(
    const std::string& payload, const std::string& expected_fingerprint,
    std::uint64_t* shard_id, std::string* error) {
  LineReader in(payload);
  if (!in.next() || in.keyword() != "shard" ||
      !in.fields().read_exactly(shard_id)) {
    return refuse(error, "bad shard id line");
  }
  return core::parse_checkpoint(std::string(in.remaining()),
                                expected_fingerprint, error);
}

std::string serialize_plan(const std::vector<PlanTask>& plans) {
  std::string out;
  for (const PlanTask& plan : plans) {
    out += strfmt("plan %llu %s\n", static_cast<unsigned long long>(plan.index),
                  plan.spec.c_str());
  }
  return out;
}

std::optional<std::vector<PlanTask>> parse_plan(const std::string& payload,
                                                std::string* error) {
  std::vector<PlanTask> plans;
  LineReader in(payload);
  while (in.next()) {
    PlanTask plan;
    if (in.keyword() != "plan" ||
        !in.fields().read_exactly(&plan.index, &plan.spec)) {
      return refuse(error, in.at("bad plan line: want 'plan <index> <spec>'"));
    }
    for (const PlanTask& earlier : plans) {
      if (earlier.index == plan.index) {
        return refuse(error, in.at("plan index listed twice"));
      }
    }
    plans.push_back(std::move(plan));
  }
  if (!in.error().empty()) return refuse(error, in.error());
  if (plans.empty()) return refuse(error, "bad plan payload: no plan line");
  return plans;
}

std::string serialize_plan_result(const PlanResult& result) {
  std::string out = kPlanResultHeader;
  out += '\n';
  append_metric_lines(result.metrics_dump, &out);
  out += strfmt("journal %zu\n", result.journal.size());
  out += result.journal;
  out += "end\n";
  return out;
}

std::optional<PlanResult> parse_plan_result(const std::string& payload,
                                            std::string* error) {
  PlanResult result;
  bool saw_journal = false;
  LineReader in(payload, kPlanResultHeader);
  while (in.next()) {
    const std::string_view keyword = in.keyword();
    LineFields& f = in.fields();
    if (keyword == "metric" && !saw_journal) {
      read_metric_line(f, &result.metrics_dump);
    } else if (keyword == "journal" && !saw_journal) {
      std::size_t nbytes = 0;
      std::string_view journal;
      if (!f.read_exactly(&nbytes) || !in.take(nbytes, &journal)) {
        return refuse(error, in.bad_line());
      }
      result.journal = journal;
      saw_journal = true;
    } else if (keyword == "end" && saw_journal) {
      if (!in.end_trailer()) return refuse(error, in.error());
    } else {
      return refuse(error, in.at("unexpected plan-result line '" +
                                 std::string(keyword) + "'"));
    }
  }
  if (!in.error().empty()) return refuse(error, in.error());
  if (!in.ended()) return refuse(error, "truncated plan-result payload");
  return result;
}

std::string serialize_escape(const core::EscapedAlt& escape,
                             const std::string& fingerprint) {
  return core::serialize_checkpoint(
      core::make_escape_shard(escape, fingerprint));
}

std::optional<core::EscapedAlt> parse_escape(
    const std::string& payload, const std::string& expected_fingerprint,
    std::string* error) {
  auto cp = core::parse_checkpoint(payload, expected_fingerprint, error);
  if (!cp.has_value()) return std::nullopt;
  if (cp->frames.empty() || cp->frames.back().untried.size() != 1) {
    if (error != nullptr) *error = "not a one-alternative escape shard";
    return std::nullopt;
  }
  core::EscapedAlt escape;
  escape.src = cp->frames.back().untried.front();
  escape.frames = std::move(cp->frames);
  return escape;
}

std::string serialize_worker_result(const WorkerResult& result,
                                    const std::string& fingerprint) {
  const core::ExploreResult& r = result.result;
  std::string out = kResultHeader;
  out += strfmt("\nshard %llu\n",
                static_cast<unsigned long long>(result.shard_id));
  out += strfmt("flags %d %d %d\n", r.interleaving_budget_exhausted ? 1 : 0,
                r.time_budget_exhausted ? 1 : 0, r.interrupted ? 1 : 0);
  out += strfmt("vtime %.17g\n", r.total_vtime_us);
  out += strfmt("wall %.17g\n", r.total_wall_seconds);
  out += strfmt("ckwrites %llu\n",
                static_cast<unsigned long long>(r.checkpoint_writes));
  append_metric_lines(result.metrics_dump, &out);
  // The counters, bugs, and alerts ride in an embedded checkpoint so the
  // wire format reuses the journal grammar instead of duplicating it.
  core::Checkpoint cp;
  cp.fingerprint = fingerprint;
  core::store_counters(r, &cp);
  const std::string inner = core::serialize_checkpoint(cp);
  out += strfmt("ckpt %zu\n", inner.size());
  out += inner;
  out += "end\n";
  return out;
}

std::optional<WorkerResult> parse_worker_result(
    const std::string& payload, const std::string& expected_fingerprint,
    std::string* error) {
  WorkerResult wr;
  core::ExploreResult& r = wr.result;
  bool saw_ckpt = false;
  LineReader in(payload, kResultHeader);
  while (in.next()) {
    const std::string_view keyword = in.keyword();
    LineFields& f = in.fields();
    bool ok = true;
    if (keyword == "shard") {
      ok = f.read_exactly(&wr.shard_id);
    } else if (keyword == "flags") {
      ok = f.read_exactly(&r.interleaving_budget_exhausted,
                          &r.time_budget_exhausted, &r.interrupted);
    } else if (keyword == "vtime") {
      ok = f.read_exactly(&r.total_vtime_us);
    } else if (keyword == "wall") {
      ok = f.read_exactly(&r.total_wall_seconds);
    } else if (keyword == "ckwrites") {
      ok = f.read_exactly(&r.checkpoint_writes);
    } else if (keyword == "metric") {
      read_metric_line(f, &wr.metrics_dump);
    } else if (keyword == "ckpt") {
      std::size_t nbytes = 0;
      std::string_view inner;
      if (!f.read_exactly(&nbytes) || !in.take(nbytes, &inner)) {
        return refuse(error, in.bad_line());
      }
      std::string inner_err;
      const auto cp = core::parse_checkpoint(std::string(inner),
                                             expected_fingerprint, &inner_err);
      if (!cp.has_value()) {
        return refuse(error, "embedded checkpoint: " + inner_err);
      }
      core::restore_counters(*cp, &r);
      saw_ckpt = true;
    } else if (keyword == "end") {
      if (!in.end_trailer()) return refuse(error, in.error());
    } else {
      return refuse(error, in.at("unknown dist-result keyword '" +
                                 std::string(keyword) + "'"));
    }
    if (!ok) return refuse(error, in.bad_line());
  }
  if (!in.error().empty()) return refuse(error, in.error());
  if (!saw_ckpt || !in.ended()) {
    return refuse(error, "truncated dist-result payload");
  }
  return wr;
}

}  // namespace dampi::dist
