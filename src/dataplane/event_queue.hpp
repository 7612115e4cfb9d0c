// The data plane's clock: a deterministic discrete-event queue. Events are
// ordered by (timestamp, push sequence) — the sequence is assigned at push
// time, so two runs that push the same events in the same order pop them in
// the same order, bit for bit, no matter how timestamps tie. This is the
// property every replay-determinism test in tests/test_dataplane.cpp rests
// on: the chunk engine never consults wall clock, thread timing, or pointer
// identity, only this queue.
//
// The queue is a binary min-heap (the classic calendar-queue bucket array
// buys O(1) amortized pops only when event times are uniform; chunk
// workloads burst at churn instants, where a heap's O(log n) is the safer
// bound — and the heap keeps the timestamp-then-id contract trivially).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace bmp::dataplane {

/// What a scheduled occurrence means to the engine.
enum class ChunkEventKind : std::uint8_t {
  kEmission,      ///< the source makes its next chunk available
  kSendComplete,  ///< a pipe finishes a transmission and frees up
  kArrival,       ///< a chunk (or its loss notice) reaches the receiver
  /// A zero-latency transmission's send-complete and arrival in one heap
  /// entry, processed in that order. Queued as a pair they would share a
  /// timestamp and consecutive sequence numbers, and whatever the
  /// send-complete pushes takes a later sequence number at a time no
  /// earlier, so the pair always popped back to back: merging them changes
  /// no outcome. It is two logical events (the profiler's "events" counter
  /// counts it twice).
  kSendAndArrival,
};

struct ChunkEvent {
  double time = 0.0;
  std::uint64_t sequence = 0;  ///< assigned by push(); total tie-break
  ChunkEventKind kind = ChunkEventKind::kEmission;
  int pipe = -1;                 ///< pipe slot (send-complete / arrival)
  std::uint64_t generation = 0;  ///< stale-event guard (pipe or emission)
  int chunk = -1;                ///< chunk id in flight (arrival kinds)
  bool lost = false;             ///< arrival carries a loss notice instead
  /// The payload's checksum won't match on arrival: either the sender held
  /// a corrupted copy (silent propagation) or the wire flipped bits in
  /// flight (fault injection). Hardened receivers re-request; frozen ones
  /// accept and forward the damage.
  bool corrupted = false;
};

class EventQueue {
 public:
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] const ChunkEvent& top() const { return heap_.front(); }

  void push(ChunkEvent event) {
    event.sequence = next_sequence_++;
    heap_.push_back(event);
    std::push_heap(heap_.begin(), heap_.end(), after);
  }

  ChunkEvent pop() {
    std::pop_heap(heap_.begin(), heap_.end(), after);
    const ChunkEvent event = heap_.back();
    heap_.pop_back();
    return event;
  }

  void clear() { heap_.clear(); }

 private:
  /// std::*_heap builds a max-heap; invert the (time, sequence) order so
  /// the earliest event surfaces. The sequence tie-break — not the heap
  /// implementation — is what makes replays stable.
  static bool after(const ChunkEvent& a, const ChunkEvent& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.sequence > b.sequence;
  }

  std::vector<ChunkEvent> heap_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace bmp::dataplane
