// World: one simulation scenario.
//
// Owns the simulator, the medium, the devices, the microphone schedule and
// the application-level delivery counters that benches read as throughput.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "fault/fault.h"
#include "obs/obs.h"
#include "sim/events.h"
#include "sim/medium.h"
#include "sim/node.h"
#include "spectrum/incumbents.h"
#include "util/rng.h"

namespace whitefi {

/// Scenario-wide configuration.
struct WorldConfig {
  std::uint64_t seed = 1;
  MediumParams medium;
  /// Latency between a mic switching on within a node's operating channel
  /// and the node's scanner flagging it (fast sensing path).
  SimTime incumbent_detect_latency = 100 * kTicksPerMs;
  /// Optional metrics / event-trace / profiler sinks (non-owning; they
  /// must outlive the World).  All null by default: instrumentation off.
  Observability obs;
  /// Optional fault injector (non-owning; must outlive the World).  Null
  /// by default: every injection point is a dead branch and the
  /// simulation is bit-identical to a world without the fault subsystem.
  FaultInjector* faults = nullptr;
  /// First node id handed out by Create<T>().  Sharded runs give each
  /// tile's world a disjoint id range so node ids stay globally unique
  /// across tiles (cross-shard ghost energy is booked under the sender's
  /// real id).
  int first_node_id = 1;
};

/// One simulation scenario.
class World {
 public:
  explicit World(const WorldConfig& config = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  Simulator& sim() { return sim_; }
  Medium& medium() { return medium_; }
  const WorldConfig& config() const { return config_; }

  /// Observability sinks shared by every component in this world.  The
  /// pointers inside may be null.
  const Observability& obs() const { return config_.obs; }
  MetricsRegistry* metrics() const { return config_.obs.metrics; }
  EventTrace* trace() const { return config_.obs.trace; }
  PhaseProfiler* profiler() const { return config_.obs.profiler; }

  /// The fault injector, or null when no faults are configured.
  FaultInjector* faults() const { return config_.faults; }

  /// Appends a structured trace event stamped with the current simulated
  /// time; no-op when no trace is attached.
  void TraceEventNow(TraceEvent event);

  /// Fresh span/flow identifier for the causal flight recorder.  The
  /// counter always advances (attached or not) so ids are stable across
  /// observability configurations; they only surface inside traces.
  std::int64_t NextTraceId() { return ++next_trace_id_; }

  /// Records that `node` entered protocol state `state` (e.g. a client
  /// moving connected -> chirping).  Feeds both the StateTimeline and a
  /// kStateEnter trace event at the same tick, which is what keeps
  /// trace-derived phase breakdowns exactly equal to the timeline.
  /// No-op when neither sink is attached.
  void RecordState(int node, std::string_view state);

  /// Flow id of the most recent active mic on `c` audible to `node_id`;
  /// 0 when none.  Lets a node continue the causal flow the incumbent
  /// event opened (mic-on -> detect -> vacate -> ... -> reconnect).
  std::int64_t MicFlowId(UhfIndex c, int node_id) const;

  /// Emits a kSpanBegin / kSpanEnd record (no-op when no trace is
  /// attached).  `name` goes in detail and must match between the pair;
  /// pass the end's `flow` to terminate a flow arrow at the span close.
  void TraceSpanBegin(int node, std::int64_t id, std::int64_t parent,
                      std::int64_t flow, std::string_view name);
  void TraceSpanEnd(int node, std::int64_t id, std::int64_t flow,
                    std::string_view name);

  /// Independent RNG stream for a component.
  Rng NewRng() { return rng_.Fork(); }

  /// Constructs and owns a device of type T (Device-derived); T's
  /// constructor must be (World&, int id, args...).
  template <typename T, typename... Args>
  T& Create(Args&&... args) {
    auto device = std::make_unique<T>(*this, next_id_++,
                                      std::forward<Args>(args)...);
    T& ref = *device;
    devices_.push_back(std::move(device));
    return ref;
  }

  /// All devices.
  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

  /// Device by node id; nullptr if unknown.
  Device* FindDevice(int id);

  /// Node ids in the given SSID.
  std::vector<int> NodesInSsid(int ssid) const;

  /// Calls Start() on every device (construction order).
  void StartAll();

  /// Installs the mic schedule: each activation flips occupancy at its
  /// on/off times and, on its on edge, schedules a detection at every
  /// device tuned over the mic channel that can hear it.
  void SetMicSchedule(std::vector<MicActivation> mics);

  /// Adds one mic audible only to the given node ids (empty = everyone).
  /// A mic with limited audibility models spatial variation: e.g. a mic
  /// next to one client that the AP cannot sense.
  void AddMic(const MicActivation& mic, std::vector<int> audible_to = {});

  /// True iff a scheduled mic is transmitting on `c` right now (regardless
  /// of who can hear it).
  bool MicActiveNow(UhfIndex c) const;

  /// True iff node `node_id` can currently sense a mic on channel `c`.
  bool MicAudible(UhfIndex c, int node_id) const;

  /// Ticks since the most recent active mic on `c` audible to `node_id`
  /// switched on; nullopt when none.  Feeds the detection-latency
  /// histogram and the incumbent-safety audit: a mic a node physically
  /// cannot sense (spatial variation) must not count against that node.
  std::optional<SimTime> MicAudibleOnSince(UhfIndex c, int node_id) const;

  /// Fast sensing after a settled retune: schedules a detection at
  /// `device` for each channel under its tuning where it hears an active
  /// mic.  The mic-on edge tells the devices already tuned there;
  /// `Device::SwitchChannel` calls this once the radio settles.
  void SenseOnTune(Device& device);

  // -- Application throughput accounting ----------------------------------

  /// Records application payload delivery to node `dst`.
  void RecordAppBytes(int dst, int bytes);

  /// Clears all delivery counters (e.g. after warm-up).
  void ResetAppBytes();

  /// Payload bytes delivered to `dst` since the last reset.
  std::uint64_t AppBytes(int dst) const;

  /// Sum of payload bytes delivered to every node in `ssid`.
  std::uint64_t AppBytesInSsid(int ssid) const;

  /// Convenience: runs the simulation for `seconds`.
  void RunFor(double seconds);

 private:
  struct WorldMic {
    MicActivation mic;
    std::vector<int> audible_to;  ///< Empty = audible to every node.
    // Tick-resolution activity window (avoids double/tick boundary skew).
    SimTime on_ticks = 0;
    SimTime off_ticks = 0;
    /// Causal flow id shared by this mic's on/off trace events and every
    /// protocol reaction they trigger.
    std::int64_t flow = 0;

    bool ActiveAtTick(SimTime t) const { return t >= on_ticks && t < off_ticks; }
    bool AudibleTo(int node_id) const;
  };

  /// The active mic on `c` that switched on last (the first added among
  /// equal on-times), among the mics `listener` can hear, or among all
  /// mics when `listener` is nullopt; null when there is none.  Every mic
  /// query is this one scan.
  const WorldMic* LatestActiveMic(UhfIndex c,
                                  std::optional<int> listener) const;

  /// After `incumbent_detect_latency`, tells `device` of the mic on `c` if
  /// it still hears one there and is still tuned over `c`.
  void ScheduleDetection(Device& device, UhfIndex c);

  void ApplyMicTransition(const WorldMic& mic, bool on);

  WorldConfig config_;
  Rng rng_;
  Simulator sim_;
  Medium medium_;
  int next_id_;
  std::int64_t next_trace_id_ = 0;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<WorldMic> mics_;
  std::map<int, std::uint64_t> app_bytes_;
};

}  // namespace whitefi
