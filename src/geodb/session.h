// GeoDbSession — a device's resilient connection to the geo-db service.
//
// The spectrum-layer GeoDatabase (spectrum/geodb.h) only answers queries.
// This class is the device side of the conversation, a full recovery
// protocol running on the simulator:
//
//   * scheduled refresh with jitter, and a timeout on every query (an
//     outage swallows requests silently — the timeout is the only signal);
//   * capped exponential backoff with seeded jitter between retries;
//   * a circuit breaker: after `breaker_failures` consecutive failures the
//     session stops hammering the service, trips to the conservative map
//     *before* the data's stale_after horizon expires, and probes
//     half-open once per cooldown;
//   * a staleness watchdog pinned to the served data_time: data older
//     than `stale_after` degrades the session even when every refresh
//     "succeeded" (the service can serve lagging data).  The boundary is
//     strict, the FCC-style "re-query within T" contract — age exactly at
//     the horizon is still trusted; one tick past it is not;
//   * push overlay: venue activation/deactivation notifications update the
//     locally held venue directory immediately, without a round trip;
//   * mobility: OnMoved re-queries after drifting `requery_km` from the
//     last query point; past `guard_km` the guarded map's validity proof
//     breaks and the session blacks out (all channels respected) until a
//     query at the new position lands.
//
// Mode transitions are observable: every fresh->degraded edge emits a
// kGeoDbDegraded trace event, bumps whitefi.geodb.degraded, opens a
// "geodb.degraded" span, and records a timeline state; the recovery edge
// mirrors it (kGeoDbRecovered / whitefi.geodb.recovered / span end).
//
// The respected map rides the device's tv_map slot (base scenario map
// union the respected set) and newly protected in-channel indices trigger
// OnIncumbentDetected.  Because the AP's busy-path vacate re-check and
// the client's switch re-check consult World::MicAudible — false for
// geo-only protections — a one-shot trigger can be legitimately dropped;
// the session therefore re-asserts every `enforce_interval` while a
// respected channel overlaps the tuned channel.
#pragma once

#include <cstdint>
#include <vector>

#include "geodb/service.h"
#include "sim/node.h"
#include "sim/world.h"

namespace whitefi {

/// Session tuning.
struct GeoDbSessionParams {
  /// Steady-state refresh period (jittered per schedule).
  SimTime refresh_interval = 2 * kTicksPerSec;
  double refresh_jitter = 0.1;
  /// Query timeout — the only way to notice an outage.
  SimTime refresh_timeout = 400 * kTicksPerMs;
  /// Retry backoff: base * factor^(failures-1), capped, jittered.
  SimTime backoff_base = 200 * kTicksPerMs;
  double backoff_factor = 2.0;
  SimTime backoff_max = 1600 * kTicksPerMs;
  double backoff_jitter = 0.2;
  /// Consecutive failures that trip the circuit breaker.
  int breaker_failures = 3;
  /// Half-open probe period while the breaker is tripped.
  SimTime breaker_cooldown = 1 * kTicksPerSec;
  /// Data older than this is stale (strict boundary; see header comment).
  Us stale_after = 20.0 * kSecond;
  /// Contour guard for queries and the conservative fallback.
  double guard_km = 5.0;
  /// Movement that prompts a re-query at the new position.
  double requery_km = 1.0;
  /// Receive venue push notifications.
  bool subscribe_push = true;
  /// Period of the respected-channel re-assert tick.
  SimTime enforce_interval = 200 * kTicksPerMs;
};

/// Where the session's incumbent knowledge currently comes from.
enum class GeoDbMode {
  kFresh,     ///< Guarded query data, within stale_after, drift <= guard.
  kDegraded,  ///< Conservative map (breaker open / stale / shed).
  kBlackout,  ///< Moved beyond guard_km with no new data: respect all.
};

/// Breaker state (exposed for tests).
enum class GeoDbBreaker { kClosed, kOpen, kHalfOpen };

class GeoDbSession {
 public:
  /// `base_map` is the device's scenario tv_map without geo content; the
  /// session owns the tv_map slot from here on (base union respected).
  /// `origin_km` maps the device's metric position onto the geo plane:
  /// geo = origin + position / 1000.
  GeoDbSession(World& world, Device& device, GeoDbService& service,
               GeoPoint origin_km, SpectrumMap base_map,
               const GeoDbSessionParams& params, std::uint64_t seed);

  /// Bootstrap (synchronous provisioning query), push subscription, first
  /// scheduled refresh, enforcement tick.  Call before the run starts.
  void Start();

  /// Notify the session that the device moved (mobility tick).
  void OnMoved();

  GeoDbMode mode() const { return mode_; }
  GeoDbBreaker breaker() const { return breaker_; }
  int consecutive_failures() const { return failures_; }
  const SpectrumMap& respected() const { return respected_; }
  Us data_time() const { return data_time_; }
  int refreshes() const { return refreshes_; }
  int degraded_transitions() const { return degraded_count_; }
  int recovered_transitions() const { return recovered_count_; }
  /// Delay chosen by the most recent backoff draw (0 before any failure);
  /// the backoff-determinism test compares these across identical seeds.
  SimTime last_backoff() const { return last_backoff_; }

 private:
  GeoPoint CurrentGeoPoint() const;
  void StartRefresh();
  void OnQueryResult(std::uint64_t generation, const GeoPoint& at,
                     const GeoQueryResult& result);
  void OnQueryTimeout(std::uint64_t generation);
  void Success(const GeoPoint& at, const GeoQueryResult& result);
  void Failure(const char* reason);
  SimTime Backoff();
  void ScheduleRefreshIn(SimTime delay);
  void OnPush(const GeoPushUpdate& update);
  void SetMode(GeoDbMode mode, const char* reason);
  void RecomputeRespected();
  void ApplyToDevice();
  void EnforceTick();

  World& world_;
  Device& device_;
  GeoDbService& service_;
  GeoPoint origin_km_;
  SpectrumMap base_map_;
  GeoDbSessionParams params_;
  Rng rng_;

  GeoDbMode mode_ = GeoDbMode::kFresh;
  GeoDbBreaker breaker_ = GeoDbBreaker::kClosed;
  int failures_ = 0;
  SimTime last_backoff_ = 0;

  bool query_pending_ = false;
  std::uint64_t query_gen_ = 0;    ///< Invalidates stale result/timeout.
  std::uint64_t refresh_gen_ = 0;  ///< Latest scheduled refresh wins.
  std::uint64_t stale_gen_ = 0;    ///< Invalidates superseded watchdogs.

  // Last successful query: contours, fallback, venue directory.
  SpectrumMap stations_;
  SpectrumMap conservative_;
  std::vector<GeoVenueInfo> directory_;
  Us data_time_ = 0.0;
  GeoPoint last_query_point_;

  SpectrumMap respected_;
  std::int64_t episode_span_ = 0;  ///< Open "geodb.degraded" span id.
  int refreshes_ = 0;
  int degraded_count_ = 0;
  int recovered_count_ = 0;
};

}  // namespace whitefi
