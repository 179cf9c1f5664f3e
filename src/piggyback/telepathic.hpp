// Telepathic transport: clocks move through a shared table keyed by
// message id instead of through messages. Two uses:
//  - modelling ISP's centralized scheduler, which observes every send and
//    receive directly and therefore needs no piggyback protocol;
//  - a zero-interference oracle in tests (no extra traffic, no shadow
//    communicators) against which the real transports are validated.
#pragma once

#include <condition_variable>
#include <mutex>
#include <unordered_map>

#include "piggyback/transport.hpp"

namespace dampi::piggyback {

/// Run-wide shared clock table (cleared between the runs of a replay
/// context). Thread-safe. take() blocks until the
/// sender has deposited: a receiver can observe a message's completion
/// before the sender's post-injection hook has run (hooks execute outside
/// the engine lock), and the deposit always follows injection in the
/// sender's own call stack, so the wait is short and cannot deadlock.
class TelepathicBoard {
 public:
  void put(std::uint64_t msg_id, mpism::Bytes clock) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      clocks_[msg_id] = std::move(clock);
    }
    cv_.notify_all();
  }

  mpism::Bytes take(std::uint64_t msg_id) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return clocks_.count(msg_id) != 0; });
    auto it = clocks_.find(msg_id);
    mpism::Bytes clock = std::move(it->second);
    clocks_.erase(it);
    return clock;
  }

  /// Forgets every deposit (clocks of messages a run never received), so
  /// the board can serve the next run, whose message ids start over.
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    clocks_.clear();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::uint64_t, mpism::Bytes> clocks_;
};

class TelepathicTransport final : public Transport {
 public:
  explicit TelepathicTransport(std::shared_ptr<TelepathicBoard> board)
      : board_(std::move(board)) {}

  void on_post_send(mpism::ToolCtx&, const mpism::SendCall&,
                    const mpism::SendInfo& info,
                    const mpism::Bytes& clock) override {
    board_->put(info.msg_id, clock);
  }

  const mpism::Bytes& on_recv_complete(mpism::ToolCtx&,
                                       mpism::ReqCompletion& c) override {
    clock_ = board_->take(c.msg_id);
    return clock_;
  }

 private:
  std::shared_ptr<TelepathicBoard> board_;
  mpism::Bytes clock_;
};

}  // namespace dampi::piggyback
