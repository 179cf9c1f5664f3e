#include "common/logging.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace dampi::log {
namespace {

Level parse_level(const char* s) {
  if (s == nullptr) return Level::kWarn;
  if (std::strcmp(s, "trace") == 0) return Level::kTrace;
  if (std::strcmp(s, "debug") == 0) return Level::kDebug;
  if (std::strcmp(s, "info") == 0) return Level::kInfo;
  if (std::strcmp(s, "warn") == 0) return Level::kWarn;
  if (std::strcmp(s, "error") == 0) return Level::kError;
  if (std::strcmp(s, "off") == 0) return Level::kOff;
  return Level::kWarn;
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kTrace: return "TRACE";
    case Level::kDebug: return "DEBUG";
    case Level::kInfo: return "INFO";
    case Level::kWarn: return "WARN";
    case Level::kError: return "ERROR";
    case Level::kOff: return "OFF";
  }
  return "?";
}

Level g_threshold = parse_level(std::getenv("DAMPI_LOG_LEVEL"));
std::mutex g_mutex;

}  // namespace

Level threshold() { return g_threshold; }
void set_threshold(Level level) { g_threshold = level; }

void write(Level level, const std::string& line) {
  if (level < g_threshold) return;
  std::lock_guard<std::mutex> lock(g_mutex);
  if (detail::t_rank >= 0) {
    std::fprintf(stderr, "[%s r%d] %s\n", level_name(level), detail::t_rank,
                 line.c_str());
  } else {
    std::fprintf(stderr, "[%s] %s\n", level_name(level), line.c_str());
  }
}

}  // namespace dampi::log
