#include "mpism/engine_lock.hpp"

namespace dampi::mpism {

std::string engine_lock_spec(EngineLockKind kind) {
  return kind == EngineLockKind::kGlobal ? "global" : "sharded";
}

}  // namespace dampi::mpism
