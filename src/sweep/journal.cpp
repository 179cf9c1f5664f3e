#include "sweep/journal.hpp"

#include <utility>

#include "common/line_record.hpp"
#include "common/strutil.hpp"

namespace dampi::sweep {

std::string serialize_sweep_journal(const SweepJournal& journal) {
  std::string out = kSweepJournalHeader;
  out += '\n';
  out += "options " + journal.fingerprint + '\n';
  for (const auto& [index, record] : journal.records) {
    out += strfmt("plan %llu %s %llu %llu %llu %d %s\n",
                  static_cast<unsigned long long>(record.index),
                  verdict_name(record.verdict),
                  static_cast<unsigned long long>(record.interleavings),
                  static_cast<unsigned long long>(record.fires),
                  static_cast<unsigned long long>(record.bugs),
                  record.partial ? 1 : 0, record.spec.c_str());
    if (!record.latent_error.empty()) {
      out += strfmt("latent %llu %s\n",
                    static_cast<unsigned long long>(record.index),
                    escape_line(record.latent_error).c_str());
    }
  }
  out += "end\n";
  return out;
}

std::optional<SweepJournal> parse_sweep_journal(
    const std::string& text, const std::string& expected_fingerprint,
    std::string* error) {
  SweepJournal journal;
  bool saw_options = false;
  LineReader in(text, kSweepJournalHeader);
  while (in.next()) {
    const std::string_view keyword = in.keyword();
    LineFields& f = in.fields();
    if (keyword == "options") {
      journal.fingerprint = f.rest();
      if (!expected_fingerprint.empty() &&
          journal.fingerprint != expected_fingerprint) {
        return refuse(error, in.at(strfmt(
            "sweep fingerprint mismatch — journal was written by a "
            "different sweep configuration\n  journal: %s\n  current: %s",
            journal.fingerprint.c_str(), expected_fingerprint.c_str())));
      }
      saw_options = true;
    } else if (keyword == "plan") {
      PlanRecord record;
      std::string_view verdict;
      if (!f.read_exactly(&record.index, &verdict, &record.interleavings,
                          &record.fires, &record.bugs, &record.partial,
                          &record.spec)) {
        return refuse(error, in.bad_line());
      }
      if (!parse_verdict(std::string(verdict), &record.verdict)) {
        return refuse(error,
                      in.at("unknown verdict '" + std::string(verdict) + "'"));
      }
      if (!journal.records.emplace(record.index, std::move(record)).second) {
        return refuse(error, in.at("duplicate plan index"));
      }
    } else if (keyword == "latent") {
      std::uint64_t index = 0;
      if (!f.read(&index)) return refuse(error, in.bad_line());
      auto it = journal.records.find(index);
      if (it == journal.records.end()) {
        return refuse(error, in.at("latent line without its plan"));
      }
      it->second.latent_error = f.unescaped_rest();
    } else if (keyword == "end") {
      if (!in.end_trailer()) return refuse(error, in.error());
    } else {
      return refuse(error,
                    in.at("unknown keyword '" + std::string(keyword) + "'"));
    }
  }
  if (!in.error().empty()) return refuse(error, in.error());
  if (!saw_options) return refuse(error, "missing 'options' fingerprint line");
  if (!in.ended()) {
    return refuse(error, "truncated sweep journal (missing 'end' trailer)");
  }
  return journal;
}

bool save_sweep_journal(const SweepJournal& journal, const std::string& path) {
  return write_file_atomic(path, serialize_sweep_journal(journal));
}

std::optional<SweepJournal> load_sweep_journal(
    const std::string& path, const std::string& expected_fingerprint,
    std::string* error) {
  const auto text = read_file(path, error);
  if (!text.has_value()) return std::nullopt;
  return parse_sweep_journal(*text, expected_fingerprint, error);
}

}  // namespace dampi::sweep
