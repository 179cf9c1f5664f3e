// IspVerifier: the centralized baseline with the same verification
// guarantees as DAMPI (it is the authors' earlier tool) but a different
// architecture: a central scheduler with a global view.
//
// Mapped onto this codebase: the global view means ISP tracks causality
// exactly (vector-clock mode) and moves clocks through shared state (the
// telepathic transport — a centralized scheduler needs no piggyback
// messages), while every MPI call pays a synchronous round trip to the
// single scheduler timeline (isp_layer.hpp). Exploration reuses the same
// epoch-decision depth-first search.
#pragma once

#include "core/verifier.hpp"
#include "isp/isp_layer.hpp"

namespace dampi::isp {

struct IspOptions {
  core::ExplorerOptions explorer;
  bool measure_native = true;
};

class IspVerifier {
 public:
  explicit IspVerifier(IspOptions options);

  core::VerifyResult verify(const mpism::ProgramFn& program,
                            const core::Explorer::RunObserver& observer = {});

 private:
  IspOptions options_;
};

}  // namespace dampi::isp
