// Traffic generators.
//
// The paper's evaluation uses three source types: link-saturating UDP
// flows for the WhiteFi AP/clients, constant-bit-rate (CBR) background
// traffic parameterized by inter-packet delay (Figures 10-12, 14), and a
// two-state (Active/Passive) Markov background for the churn experiment
// (Figure 13).
#pragma once

#include <functional>

#include "sim/node.h"

namespace whitefi {

/// Constant-bit-rate source: one data frame of `payload_bytes` every
/// `interval`, addressed to `dst`.
class CbrSource {
 public:
  CbrSource(Device& device, int dst, int payload_bytes, SimTime interval);

  /// Begins sending (first frame after one interval).
  void Start();

  /// Pauses/resumes.  While inactive no frames are generated.
  void SetActive(bool active);

  /// True iff currently generating.
  bool Active() const { return active_; }

  /// Frames generated so far.
  std::uint64_t Generated() const { return generated_; }

  /// Changes the inter-packet interval (takes effect next tick).
  void SetInterval(SimTime interval) { interval_ = interval; }

 private:
  void Tick();

  Device& device_;
  int dst_;
  int payload_bytes_;
  SimTime interval_;
  bool started_ = false;
  bool active_ = false;
  EventId timer_ = kInvalidEventId;
  std::uint64_t generated_ = 0;
};

/// Link-saturating source: keeps the device's MAC queue topped up so the
/// MAC always has a frame to contend with (backlogged UDP flow).  With
/// several destinations (an AP's downlink to all its clients) frames
/// round-robin across them.  A watchdog re-primes the queue after channel
/// switches (which clear the MAC queue).
class SaturatedSource {
 public:
  SaturatedSource(Device& device, std::vector<int> dsts, int payload_bytes);

  /// Single-destination convenience.
  SaturatedSource(Device& device, int dst, int payload_bytes)
      : SaturatedSource(device, std::vector<int>{dst}, payload_bytes) {}

  /// Begins sending.
  void Start();

  /// Frames generated so far.
  std::uint64_t Generated() const { return generated_; }

 private:
  void Refill();
  void Watchdog();

  Device& device_;
  std::vector<int> dsts_;
  std::size_t next_dst_ = 0;
  int payload_bytes_;
  bool started_ = false;
  std::uint64_t generated_ = 0;
};

/// Two-state Markov on/off modulation of a CBR source (Figure 13).  In the
/// Active state the wrapped source runs; in Passive it is silent.  State
/// holding times are exponential.
class MarkovOnOffSource {
 public:
  struct Params {
    SimTime mean_active = 30 * kTicksPerSec;
    SimTime mean_passive = 30 * kTicksPerSec;
    /// Probability the source starts in the Active state.
    double initial_active_probability = 0.5;
  };

  MarkovOnOffSource(Device& device, int dst, int payload_bytes,
                    SimTime interval, const Params& params);

  /// Starts the chain (draws the initial state).
  void Start();

  /// Stationary probability of the Active state.
  double StationaryActive() const;

  /// The wrapped CBR source.
  CbrSource& cbr() { return cbr_; }

 private:
  void EnterState(bool active);

  CbrSource cbr_;
  Params params_;
  Simulator& sim_;
  Rng rng_;
};

}  // namespace whitefi
