#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <utility>

#include "common/strutil.hpp"
#include "core/checkpoint.hpp"
#include "mpism/fault.hpp"
#include "obs/trace.hpp"
#include "sweep/journal.hpp"

namespace dampi::sweep {

namespace {

/// Deterministic hang watchdog for every campaign whose base options
/// carry no op budget of their own: a run exceeding this many engine ops
/// under an injection is a kHang verdict (livelock), independent of host
/// speed. Verdict-affecting, so the fingerprint prints it (`planops=`).
constexpr std::uint64_t kPlanMaxRunOps = 1u << 20;

/// Campaign spawn failures (exceptions out of the explorer) are retried
/// this many times, the backoff doubling from 10 ms, before the plan is
/// recorded as sweep-error (a coverage hole, not a crash of the sweep).
constexpr int kMaxPlanRespawns = 2;
constexpr double kRespawnBackoffMs = 10.0;

/// Dedup key over the coordinate a point occupies, ignoring its
/// parameter (delay length, flaky cap): two delay plans at the same
/// (rank, op) probe the same cell of the matrix.
std::string point_key(const mpism::FaultPoint& point) {
  return strfmt("%d@%d:%llu", static_cast<int>(point.kind), point.rank,
                static_cast<unsigned long long>(point.op_index));
}

/// Marker FaultLayer puts at the start of the errors it raises; any
/// error message without it is a latent program bug the injection
/// exposed.
constexpr const char* kInjectedMarker = "fault injected";

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// The per-campaign verifier configuration: the base options with the
/// plan installed, sweep budgets applied, and every cross-campaign
/// facility (checkpoints, distributed hooks) stripped — campaigns must
/// be independent and deterministic so the report is a pure function of
/// the sweep inputs.
core::ExplorerOptions campaign_options(
    const SweepOptions& sweep, std::shared_ptr<mpism::FaultPlan> plan,
    std::shared_ptr<mpism::CancelSource> cancel) {
  core::ExplorerOptions opts = sweep.explorer;
  opts.fault = std::move(plan);
  opts.max_interleavings = sweep.plan_max_interleavings;
  opts.max_wall_seconds = sweep.plan_wall_seconds;
  if (opts.max_run_ops == 0) opts.max_run_ops = kPlanMaxRunOps;
  opts.cancel = std::move(cancel);
  opts.checkpoint_path.clear();
  opts.resume_from.reset();
  opts.discovery_only = false;
  opts.export_frontier = false;
  opts.on_escape = nullptr;
  opts.steal_poll = nullptr;
  opts.on_steal = nullptr;
  opts.run_stats = nullptr;
  // A flaky point is the transient fault the retry path exists for:
  // give every campaign enough retries to burn through the cap, so the
  // sweep can observe masking instead of quarantining the subtree.
  for (const mpism::FaultPoint& point : opts.fault->points()) {
    if (point.kind == mpism::FaultPoint::Kind::kFlaky) {
      opts.max_retries = std::max(opts.max_retries,
                                  static_cast<int>(point.max_fires));
    }
  }
  return opts;
}

}  // namespace

std::string sweep_fingerprint(const SweepOptions& options) {
  core::ExplorerOptions base = options.explorer;
  base.fault.reset();
  base.checkpoint_tag = options.program_name;
  std::string fp = core::options_fingerprint(base);
  fp += strfmt(
      " sweep budget=%llu seed=%llu kinds=%s delays=%d flakys=%d "
      "planil=%llu planops=%llu",
      static_cast<unsigned long long>(options.budget),
      static_cast<unsigned long long>(options.seed),
      sweep_kinds_spec(options.kinds).c_str(), options.delay_samples,
      options.flaky_samples,
      static_cast<unsigned long long>(options.plan_max_interleavings),
      static_cast<unsigned long long>(kPlanMaxRunOps));
  return fp;
}

std::vector<std::string> enumerate_plans(const OpInventory& inventory,
                                         const SweepOptions& options,
                                         std::uint64_t* planned) {
  std::vector<std::string> specs;
  std::set<std::string> seen;
  const auto push = [&specs, &seen](const mpism::FaultPoint& point) {
    if (seen.insert(point_key(point)).second) {
      specs.push_back(mpism::fault_point_spec(point));
    }
  };

  // Exhaustive families first, op-major: shallow ops across all ranks
  // before deep ones, so a small budget still probes every rank's
  // early calls instead of spending itself on rank 0 alone.
  const std::uint64_t deepest = inventory.max_ops();
  for (std::uint64_t op = 1; op <= deepest; ++op) {
    for (std::size_t rank = 0; rank < inventory.ops.size(); ++rank) {
      if (inventory.ops[rank].size() < op) continue;
      mpism::FaultPoint point;
      point.rank = static_cast<mpism::Rank>(rank);
      point.op_index = op;
      if (options.kinds.abort_) {
        point.kind = mpism::FaultPoint::Kind::kAbort;
        push(point);
      }
      if (options.kinds.error_) {
        point.kind = mpism::FaultPoint::Kind::kError;
        push(point);
      }
    }
  }

  // Sampled perturbation families, drawn from the seeded generator in a
  // fixed order (delays before flakys; every draw happens whether or
  // not dedup keeps the point) so the enumeration is reproducible.
  std::vector<std::pair<mpism::Rank, std::uint64_t>> coords;
  for (std::size_t rank = 0; rank < inventory.ops.size(); ++rank) {
    for (std::size_t i = 0; i < inventory.ops[rank].size(); ++i) {
      coords.emplace_back(static_cast<mpism::Rank>(rank), i + 1);
    }
  }
  std::mt19937_64 rng(options.seed);
  static constexpr double kDelaysUs[] = {100.0, 1000.0, 10000.0};
  if (options.kinds.delay_ && !coords.empty()) {
    for (int i = 0; i < options.delay_samples; ++i) {
      const auto [rank, op] = coords[rng() % coords.size()];
      mpism::FaultPoint point;
      point.kind = mpism::FaultPoint::Kind::kDelay;
      point.rank = rank;
      point.op_index = op;
      point.delay_us = kDelaysUs[rng() % 3];
      push(point);
    }
  }
  if (options.kinds.flaky_ && !coords.empty()) {
    for (int i = 0; i < options.flaky_samples; ++i) {
      const auto [rank, op] = coords[rng() % coords.size()];
      mpism::FaultPoint point;
      point.kind = mpism::FaultPoint::Kind::kFlaky;
      point.rank = rank;
      point.op_index = op;
      point.max_fires = 1 + rng() % 3;
      push(point);
    }
  }

  if (planned != nullptr) *planned = specs.size();
  if (specs.size() > options.budget) {
    specs.resize(options.budget);
  }
  return specs;
}

PlanRecord classify_campaign(std::uint64_t index, const std::string& spec,
                             const core::ExploreResult& result,
                             std::uint64_t fires) {
  PlanRecord record;
  record.index = index;
  record.spec = spec;
  record.interleavings = result.interleavings;
  record.fires = fires;
  record.bugs = result.bugs.size();
  record.partial =
      result.interleaving_budget_exhausted || result.time_budget_exhausted;

  bool deadlocked = false;
  bool hung = false;
  bool errored = false;
  for (const core::BugRecord& bug : result.bugs) {
    switch (bug.kind) {
      case core::BugRecord::Kind::kDeadlock:
        deadlocked = true;
        break;
      case core::BugRecord::Kind::kHang:
        hung = true;
        break;
      case core::BugRecord::Kind::kError:
        errored = true;
        for (const mpism::ErrorInfo& err : bug.errors) {
          if (record.latent_error.empty() &&
              err.message.find(kInjectedMarker) == std::string::npos) {
            record.latent_error = err.message;
          }
        }
        break;
    }
  }
  if (deadlocked) {
    record.verdict = Verdict::kDeadlock;
  } else if (hung) {
    record.verdict = Verdict::kHang;
  } else if (errored) {
    record.verdict = Verdict::kErrorPropagated;
  } else if (fires > 0) {
    record.verdict = Verdict::kMasked;
  } else {
    record.verdict = Verdict::kClean;
  }
  return record;
}

core::ExploreResult run_plan_with_respawn(
    const std::function<core::ExploreResult()>& runner, int max_respawns,
    double backoff_ms, std::uint64_t* respawns, std::string* error) {
  double backoff = backoff_ms;
  for (int attempt = 0;; ++attempt) {
    try {
      return runner();
    } catch (const std::exception& e) {
      if (attempt >= max_respawns) {
        *error = e.what();
        return core::ExploreResult{};
      }
    } catch (...) {
      if (attempt >= max_respawns) {
        *error = "unknown campaign spawn failure";
        return core::ExploreResult{};
      }
    }
    if (respawns != nullptr) ++*respawns;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff));
    backoff *= 2.0;
  }
}

SweepResult run_sweep(const SweepOptions& options,
                      const mpism::ProgramFn& program) {
  SweepResult result;
  if (options.explorer.fault) {
    result.error =
        "sweep: base options already carry a fault plan — the sweep owns "
        "injection (drop --fault)";
    return result;
  }
  if (options.resume && options.journal_path.empty()) {
    result.error = "sweep: --resume requires a sweep journal path";
    return result;
  }

  result.inventory = harvest_inventory(options.explorer, program);
  if (!result.inventory.error.empty()) {
    result.error = result.inventory.error;
    return result;
  }

  const std::vector<std::string> specs =
      enumerate_plans(result.inventory, options, &result.planned);
  result.truncated = result.planned - specs.size();
  const std::string fingerprint = sweep_fingerprint(options);

  // Completed-plan slots, filled by index so worker scheduling can
  // never reorder the report.
  std::vector<PlanRecord> slots(specs.size());
  std::vector<char> done(specs.size(), 0);

  SweepJournal journal;
  journal.fingerprint = fingerprint;
  if (options.resume) {
    std::string journal_error;
    auto loaded = load_sweep_journal(options.journal_path, fingerprint,
                                     &journal_error);
    if (!loaded.has_value()) {
      result.error = "sweep journal: " + journal_error;
      return result;
    }
    journal = std::move(*loaded);
    for (const auto& [index, record] : journal.records) {
      if (index >= specs.size() || record.spec != specs[index]) {
        result.error = strfmt(
            "sweep journal: plan %llu does not match this sweep's "
            "enumeration (journal '%s')",
            static_cast<unsigned long long>(index), record.spec.c_str());
        return result;
      }
      slots[index] = record;
      done[index] = 1;
      ++result.resumed;
    }
  }


  std::mutex mu;  // journal writes, result counters, on_plan_done
  std::atomic<std::size_t> next{0};
  std::atomic<bool> interrupted{false};

  const auto worker_loop = [&](int worker_index) {
    DAMPI_TRACE_THREAD_LANE(strfmt("sweep %d", worker_index));
    while (true) {
      const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
      if (index >= specs.size()) return;
      if (done[index] != 0) continue;  // satisfied from the journal
      if (options.cancel && options.cancel->requested()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }

      std::string parse_error;
      auto plan = mpism::parse_fault_plan(specs[index], &parse_error);
      if (!plan) {
        // Enumeration emits canonical specs; a parse failure here is a
        // sweep bug, recorded as a coverage hole rather than a crash.
        PlanRecord record;
        record.index = index;
        record.spec = specs[index];
        record.verdict = Verdict::kSweepError;
        record.latent_error = parse_error;
        std::lock_guard<std::mutex> lk(mu);
        slots[index] = record;
        done[index] = 1;
        continue;
      }

      // Per-plan cancel chained to the sweep-wide source, so one SIGINT
      // stops every in-flight campaign; the chain is detached before
      // the plan's source dies.
      auto plan_cancel = std::make_shared<mpism::CancelSource>();
      std::uint64_t subscription = 0;
      if (options.cancel) {
        subscription = options.cancel->subscribe(
            [plan_cancel](const std::string& reason) {
              plan_cancel->cancel(reason);
            });
      }
      const core::ExplorerOptions opts =
          campaign_options(options, plan, plan_cancel);
      std::uint64_t respawns = 0;
      std::string spawn_error;
      const core::ExploreResult outcome = run_plan_with_respawn(
          [&opts, &program]() {
            core::Explorer explorer(opts);
            return explorer.explore(program);
          },
          kMaxPlanRespawns, kRespawnBackoffMs, &respawns, &spawn_error);
      if (options.cancel) options.cancel->unsubscribe(subscription);

      if (outcome.interrupted) {
        // Cancelled mid-campaign: no verdict. Not journalled, so a
        // resume re-runs this plan from scratch — the kill/resume
        // exactness contract.
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }

      PlanRecord record;
      if (!spawn_error.empty()) {
        record.index = index;
        record.spec = specs[index];
        record.verdict = Verdict::kSweepError;
        record.latent_error = spawn_error;
      } else {
        record = classify_campaign(index, specs[index], outcome,
                                   plan->total_fires());
      }
      DAMPI_TEVENT(obs::EventKind::kSweepPlan, obs::Phase::kInstant,
                   static_cast<std::int32_t>(index),
                   static_cast<std::int32_t>(record.verdict), 0,
                   record.interleavings);

      std::lock_guard<std::mutex> lk(mu);
      slots[index] = record;
      done[index] = 1;
      ++result.executed;
      result.respawns += respawns;
      if (!options.journal_path.empty()) {
        journal.records[index] = record;
        save_sweep_journal(journal, options.journal_path);
      }
      if (options.on_plan_done) options.on_plan_done(record);
    }
  };

  const int workers =
      std::max(1, std::min(options.workers,
                           static_cast<int>(specs.empty() ? 1 : specs.size())));
  if (workers == 1) {
    worker_loop(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back(worker_loop, w);
    }
    for (std::thread& t : pool) t.join();
  }

  result.interrupted = interrupted.load(std::memory_order_relaxed) ||
                       (options.cancel && options.cancel->requested());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (done[i] != 0) result.records.push_back(slots[i]);
  }
  return result;
}

std::string format_sweep_report_json(const SweepOptions& options,
                                     const SweepResult& result) {
  std::string out = "{\n";
  out += strfmt("  \"program\": \"%s\",\n",
                json_escape(options.program_name).c_str());
  out += strfmt("  \"nprocs\": %d,\n", options.explorer.nprocs);
  out += strfmt("  \"budget\": %llu,\n",
                static_cast<unsigned long long>(options.budget));
  out += strfmt("  \"seed\": %llu,\n",
                static_cast<unsigned long long>(options.seed));
  out += strfmt("  \"kinds\": \"%s\",\n", sweep_kinds_spec(options.kinds).c_str());
  out += strfmt("  \"planned\": %llu,\n",
                static_cast<unsigned long long>(result.planned));
  out += strfmt("  \"truncated\": %llu,\n",
                static_cast<unsigned long long>(result.truncated));
  out += strfmt(
      "  \"inventory\": {\"ranks\": %zu, \"total_ops\": %llu, \"per_rank\": [",
      result.inventory.ops.size(),
      static_cast<unsigned long long>(result.inventory.total_ops()));
  for (std::size_t rank = 0; rank < result.inventory.ops.size(); ++rank) {
    if (rank > 0) out += ", ";
    out += strfmt("%zu", result.inventory.ops[rank].size());
  }
  out += "]},\n";

  std::uint64_t counts[6] = {0, 0, 0, 0, 0, 0};
  for (const PlanRecord& record : result.records) {
    ++counts[static_cast<int>(record.verdict)];
  }
  out += "  \"verdicts\": {";
  for (int v = 0; v < 6; ++v) {
    if (v > 0) out += ", ";
    out += strfmt("\"%s\": %llu", verdict_name(static_cast<Verdict>(v)),
                  static_cast<unsigned long long>(counts[v]));
  }
  out += "},\n";

  out += "  \"plans\": [\n";
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const PlanRecord& record = result.records[i];
    out += strfmt(
        "    {\"index\": %llu, \"spec\": \"%s\", \"verdict\": \"%s\", "
        "\"interleavings\": %llu, \"fires\": %llu, \"bugs\": %llu, "
        "\"partial\": %s",
        static_cast<unsigned long long>(record.index),
        json_escape(record.spec).c_str(), verdict_name(record.verdict),
        static_cast<unsigned long long>(record.interleavings),
        static_cast<unsigned long long>(record.fires),
        static_cast<unsigned long long>(record.bugs),
        record.partial ? "true" : "false");
    if (!record.latent_error.empty()) {
      out += strfmt(", \"latent\": \"%s\"",
                    json_escape(record.latent_error).c_str());
    }
    out += "}";
    if (i + 1 < result.records.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string format_sweep_summary(const SweepOptions& options,
                                 const SweepResult& result) {
  std::string out;
  if (!result.error.empty()) {
    return strfmt("fault sweep failed: %s\n", result.error.c_str());
  }
  out += strfmt("fault sweep: %s (%d ranks, %llu injectable ops)\n",
                options.program_name.c_str(), options.explorer.nprocs,
                static_cast<unsigned long long>(result.inventory.total_ops()));
  out += strfmt(
      "  plans: %zu completed of %llu enumerated (%llu over budget); "
      "%llu executed, %llu resumed, %llu respawns%s\n",
      result.records.size(), static_cast<unsigned long long>(result.planned),
      static_cast<unsigned long long>(result.truncated),
      static_cast<unsigned long long>(result.executed),
      static_cast<unsigned long long>(result.resumed),
      static_cast<unsigned long long>(result.respawns),
      result.interrupted ? " — INTERRUPTED" : "");

  for (int v = 0; v < 6; ++v) {
    const Verdict verdict = static_cast<Verdict>(v);
    std::vector<const PlanRecord*> matching;
    for (const PlanRecord& record : result.records) {
      if (record.verdict == verdict) matching.push_back(&record);
    }
    if (matching.empty()) continue;
    out += strfmt("  %-16s %4zu:", verdict_name(verdict), matching.size());
    constexpr std::size_t kShown = 8;
    for (std::size_t i = 0; i < matching.size() && i < kShown; ++i) {
      out += ' ';
      out += matching[i]->spec;
    }
    if (matching.size() > kShown) {
      out += strfmt(" (+%zu more)", matching.size() - kShown);
    }
    out += '\n';
  }
  for (const PlanRecord& record : result.records) {
    if (!record.latent_error.empty() &&
        record.verdict != Verdict::kSweepError) {
      out += strfmt("  latent error under %s: %s\n", record.spec.c_str(),
                    record.latent_error.c_str());
    }
  }
  return out;
}

int sweep_exit_code(const SweepResult& result) {
  if (!result.error.empty()) return 3;
  bool bugs = false;
  bool partial = result.interrupted;
  for (const PlanRecord& record : result.records) {
    if (record.verdict == Verdict::kDeadlock ||
        record.verdict == Verdict::kHang ||
        (record.verdict == Verdict::kErrorPropagated &&
         !record.latent_error.empty())) {
      bugs = true;
    }
    if (record.partial || record.verdict == Verdict::kSweepError) {
      partial = true;
    }
  }
  if (bugs) return 1;
  if (partial) return 2;
  return 0;
}

}  // namespace dampi::sweep
