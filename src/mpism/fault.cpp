#include "mpism/fault.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/strutil.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dampi::mpism {

namespace {

const char* kind_name(FaultPoint::Kind kind) {
  switch (kind) {
    case FaultPoint::Kind::kAbort:
      return "abort";
    case FaultPoint::Kind::kError:
      return "error";
    case FaultPoint::Kind::kDelay:
      return "delay";
    case FaultPoint::Kind::kFlaky:
      return "flaky";
  }
  return "?";
}

/// Parses a non-negative integer covering the whole of `text`.
bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

bool parse_double(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || value < 0.0) {
    return false;
  }
  *out = value;
  return true;
}

bool parse_point(const std::string& item, FaultPoint* out, std::string* error) {
  const std::size_t at = item.find('@');
  if (at == std::string::npos) {
    *error = strfmt("fault point '%s': missing '@'", item.c_str());
    return false;
  }
  const std::string kind = item.substr(0, at);
  FaultPoint point;
  int extra_fields = 0;
  if (kind == "abort") {
    point.kind = FaultPoint::Kind::kAbort;
  } else if (kind == "error") {
    point.kind = FaultPoint::Kind::kError;
  } else if (kind == "delay") {
    point.kind = FaultPoint::Kind::kDelay;
    extra_fields = 1;
  } else if (kind == "flaky") {
    point.kind = FaultPoint::Kind::kFlaky;
    extra_fields = 1;
  } else {
    *error = strfmt("fault point '%s': unknown kind '%s'", item.c_str(),
                    kind.c_str());
    return false;
  }

  std::vector<std::string> fields;
  std::size_t start = at + 1;
  while (true) {
    const std::size_t colon = item.find(':', start);
    if (colon == std::string::npos) {
      fields.push_back(item.substr(start));
      break;
    }
    fields.push_back(item.substr(start, colon - start));
    start = colon + 1;
  }
  if (static_cast<int>(fields.size()) != 2 + extra_fields) {
    *error = strfmt("fault point '%s': expected %d ':'-separated fields",
                    item.c_str(), 2 + extra_fields);
    return false;
  }

  std::uint64_t rank = 0;
  std::uint64_t op = 0;
  if (!parse_u64(fields[0], &rank) || !parse_u64(fields[1], &op) || op == 0) {
    *error = strfmt("fault point '%s': bad rank or op index (op is 1-based)",
                    item.c_str());
    return false;
  }
  point.rank = static_cast<Rank>(rank);
  point.op_index = op;
  if (point.kind == FaultPoint::Kind::kDelay) {
    if (!parse_double(fields[2], &point.delay_us)) {
      *error = strfmt("fault point '%s': bad delay microseconds", item.c_str());
      return false;
    }
  } else if (point.kind == FaultPoint::Kind::kFlaky) {
    if (!parse_u64(fields[2], &point.max_fires) || point.max_fires == 0) {
      *error = strfmt("fault point '%s': bad fire count", item.c_str());
      return false;
    }
  }
  *out = point;
  return true;
}

}  // namespace

FaultPlan::FaultPlan(std::vector<FaultPoint> points, bool count_only)
    : points_(std::move(points)),
      count_only_(count_only),
      fired_(new std::atomic<std::uint64_t>[points_.empty() ? 1
                                                            : points_.size()]),
      reach_(count_only ? points_.size() : 0) {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    fired_[i].store(0, std::memory_order_relaxed);
  }
}

void FaultPlan::reset_reach() {
  std::fill(reach_.begin(), reach_.end(), Reach{});
}

FaultEffect fault_effect(const FaultPoint& point) {
  FaultEffect effect;
  switch (point.kind) {
    case FaultPoint::Kind::kAbort:
    case FaultPoint::Kind::kError:
      break;
    case FaultPoint::Kind::kDelay:
      effect.action = FaultEffect::Action::kDelay;
      effect.delay_us = point.delay_us;
      break;
    case FaultPoint::Kind::kFlaky:
      effect.max_fires = point.max_fires;
      break;
  }
  return effect;
}

bool FaultPlan::should_fire(std::size_t i) {
  const std::uint64_t cap = fault_effect(points_[i]).max_fires;
  const std::uint64_t prior = fired_[i].fetch_add(1, std::memory_order_relaxed);
  return !count_only_ && (cap == 0 || prior < cap);
}

std::uint64_t FaultPlan::fires(std::size_t i) const {
  const std::uint64_t cap = fault_effect(points_[i]).max_fires;
  const std::uint64_t count = fired_[i].load(std::memory_order_relaxed);
  return cap == 0 ? count : std::min(count, cap);
}

std::uint64_t FaultPlan::total_fires() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    total += fires(i);
  }
  return total;
}

std::vector<std::uint64_t> FaultPlan::fire_counts() const {
  std::vector<std::uint64_t> counts(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    counts[i] = fires(i);
  }
  return counts;
}

void FaultPlan::seed_fires(const std::vector<std::uint64_t>& seed) {
  if (seed.size() != points_.size()) return;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    std::uint64_t current = fired_[i].load(std::memory_order_relaxed);
    while (seed[i] > current &&
           !fired_[i].compare_exchange_weak(current, seed[i],
                                            std::memory_order_relaxed)) {
    }
  }
}

std::shared_ptr<FaultPlan> parse_fault_plan(const std::string& spec,
                                            std::string* error) {
  std::vector<FaultPoint> points;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string item = spec.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) {
      *error = "fault spec: empty point";
      return nullptr;
    }
    FaultPoint point;
    if (!parse_point(item, &point, error)) {
      return nullptr;
    }
    points.push_back(point);
    if (comma == spec.size()) {
      break;
    }
  }
  if (points.empty()) {
    *error = "fault spec: no points";
    return nullptr;
  }
  // Canonical order: (rank, op, kind). Two spellings of the same plan
  // then fingerprint identically, and a duplicate (rank, op, kind)
  // point — which would silently double-fire — becomes adjacent and is
  // rejected with the exact offending token.
  std::stable_sort(points.begin(), points.end(),
                   [](const FaultPoint& a, const FaultPoint& b) {
                     if (a.rank != b.rank) return a.rank < b.rank;
                     if (a.op_index != b.op_index) return a.op_index < b.op_index;
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
  for (std::size_t i = 1; i < points.size(); ++i) {
    const FaultPoint& prev = points[i - 1];
    const FaultPoint& cur = points[i];
    if (prev.rank == cur.rank && prev.op_index == cur.op_index &&
        prev.kind == cur.kind) {
      *error = strfmt(
          "fault point '%s': duplicate (rank, op, kind) point — each "
          "injection point may appear once",
          fault_point_spec(cur).c_str());
      return nullptr;
    }
  }
  return std::make_shared<FaultPlan>(std::move(points));
}

std::string fault_point_spec(const FaultPoint& p) {
  std::string out = strfmt("%s@%d:%llu", kind_name(p.kind), p.rank,
                           static_cast<unsigned long long>(p.op_index));
  if (p.kind == FaultPoint::Kind::kDelay) {
    out += strfmt(":%.0f", p.delay_us);
  } else if (p.kind == FaultPoint::Kind::kFlaky) {
    out += strfmt(":%llu", static_cast<unsigned long long>(p.max_fires));
  }
  return out;
}

std::string fault_spec(const FaultPlan& plan) {
  std::string out;
  for (const FaultPoint& p : plan.points()) {
    if (!out.empty()) {
      out += ',';
    }
    out += fault_point_spec(p);
  }
  return out;
}

std::string validate_fault_plan(const FaultPlan& plan, int nprocs) {
  for (const FaultPoint& p : plan.points()) {
    if (p.rank < 0 || p.rank >= nprocs) {
      return strfmt(
          "fault point '%s': rank %d out of range for %d ranks "
          "(valid ranks: 0..%d)",
          fault_point_spec(p).c_str(), p.rank, nprocs, nprocs - 1);
    }
  }
  return std::string();
}

FaultLayer::FaultLayer(std::shared_ptr<FaultPlan> plan, Rank rank)
    : plan_(std::move(plan)), rank_(rank) {
  const std::vector<FaultPoint>& points = plan_->points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].rank == rank_) mine_.push_back(i);
  }
  std::stable_sort(mine_.begin(), mine_.end(),
                   [&points](std::size_t a, std::size_t b) {
                     return points[a].op_index < points[b].op_index;
                   });
}

void FaultLayer::pre_isend(ToolCtx& ctx, SendCall&) { on_op(ctx, "isend"); }
void FaultLayer::pre_irecv(ToolCtx& ctx, RecvCall&) { on_op(ctx, "irecv"); }
void FaultLayer::pre_wait(ToolCtx& ctx, RequestId) { on_op(ctx, "wait"); }
void FaultLayer::pre_probe(ToolCtx& ctx, ProbeCall&) { on_op(ctx, "probe"); }
void FaultLayer::pre_collective(ToolCtx& ctx, CollCall&) {
  on_op(ctx, "collective");
}

bool FaultLayer::reset_for_next_run() {
  ops_ = 0;
  next_ = 0;
  return true;
}

ErrorInfo injected_error(const FaultPoint& point, const char* call) {
  return ErrorInfo{
      point.rank,
      strfmt("%s: %s injected at rank %d op %llu (%s)", kInjectedMarker,
             point.kind == FaultPoint::Kind::kError ? "MPI error"
                                                    : "rank abort",
             point.rank, static_cast<unsigned long long>(point.op_index),
             call)};
}

void FaultLayer::on_op(ToolCtx& ctx, const char* what) {
  ++ops_;
  const std::vector<FaultPoint>& points = plan_->points();
  // Points of ops this rank passed without acting on them (a stop ended
  // their call) never match again.
  while (next_ < mine_.size() && points[mine_[next_]].op_index < ops_) {
    ++next_;
  }
  for (; next_ < mine_.size() && points[mine_[next_]].op_index == ops_;
       ++next_) {
    const std::size_t i = mine_[next_];
    const FaultPoint& p = points[i];
    if (!plan_->should_fire(i)) {
      if (plan_->count_only()) plan_->reach_[i] = {ctx.call_seq(), what};
      continue;
    }
    static obs::Counter& fires_metric =
        obs::Registry::instance().counter("fault.fires");
    fires_metric.add(1);
    DAMPI_TEVENT(obs::EventKind::kFaultInject, obs::Phase::kInstant,
                 static_cast<std::uint32_t>(rank_),
                 static_cast<std::uint32_t>(ops_),
                 static_cast<std::uint32_t>(p.kind));
    const FaultEffect effect = fault_effect(p);
    switch (effect.action) {
      case FaultEffect::Action::kDelay:
        ctx.add_cost(effect.delay_us);
        break;
      case FaultEffect::Action::kStop:
        ctx.fail_run(injected_error(p, what).message);
        return;
    }
  }
}

}  // namespace dampi::mpism
