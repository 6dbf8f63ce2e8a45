// Simulated radio devices.
//
// `Device` is one node: a position, one main transceiver (tunable to any
// WhiteFi channel, with a PLL retune delay during which it is deaf) and a
// CSMA/CA MAC.  Protocol roles (WhiteFi AP, WhiteFi client, background
// traffic node) subclass it; traffic generators attach through hooks.
//
// Each device carries its own local incumbent observation: a static TV map
// (per-node, to model spatial variation) plus the set of wireless mics its
// scanner has detected so far.
#pragma once

#include <functional>
#include <set>
#include <vector>

#include "sim/mac.h"
#include "sim/medium.h"
#include "spectrum/spectrum_map.h"

namespace whitefi {

class World;

/// Static configuration of a device.
struct DeviceConfig {
  Position position;
  Dbm tx_power = 16.0;  ///< FCC-permitted 40 mW.
  bool is_ap = false;
  int ssid = 0;
  Channel initial_channel{0, ChannelWidth::kW5};
  SpectrumMap tv_map;  ///< Locally observed static incumbents.
  SimTime tune_delay = 5 * kTicksPerMs;  ///< PLL retune time.
  MacParams mac;
};

/// One simulated node.
class Device : public RadioPort, public MacCallbacks {
 public:
  Device(World& world, int id, const DeviceConfig& config);
  ~Device() override;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // -- RadioPort ----------------------------------------------------------
  int NodeId() const override { return id_; }
  Position Location() const override { return config_.position; }
  const Channel& TunedChannel() const override { return channel_; }
  bool IsAp() const override { return config_.is_ap; }
  void DeliverFrame(const Frame& frame, Dbm rx_power) override;
  void MediumChanged() override;

  // -- MacCallbacks --------------------------------------------------------
  void MacReceived(const Frame& frame, Dbm rx_power) override;
  void MacSendComplete(const Frame& frame, bool success) override;

  /// False while the PLL is retuning: the medium delivers nothing and
  /// sends no carrier notification in that state.
  bool RxEnabled() const;

  /// Retunes the main radio: aborts the MAC, drops its queue, and disables
  /// reception for the configured tune delay.  Once the radio settles, the
  /// world senses the new channel for live mics (World::SenseOnTune).
  void SwitchChannel(const Channel& channel);

  /// Called once after construction to start protocol behavior.
  virtual void Start() {}

  /// Fast-path incumbent notification: the scanner detected an incumbent
  /// on `channel`, which lies within the device's operating channel.
  virtual void OnIncumbentDetected(UhfIndex channel);

  /// Records a scanner observation of mic presence/absence on a channel.
  void NoteMicObservation(UhfIndex channel, bool present);

  /// The device's current incumbent view: static TV map plus detected mics.
  SpectrumMap ObservedMap() const;

  /// Replaces the device's static TV map (scenario setup and the geo-db
  /// session, whose respected map rides the tv_map slot).
  void SetTvMap(const SpectrumMap& map) { config_.tv_map = map; }

  /// Moves the device (mobility models).  The medium reads positions when
  /// it needs them: carrier sense at each query, reception and
  /// interference when a frame ends (ResolveReceptions,
  /// InterferencePowerMw).  So a frame already in flight, sent or being
  /// received, takes the geometry of the new position.  Ghost energy is
  /// the exception: a ghost keeps the position its node had at emission.
  void SetPosition(const Position& position) { config_.position = position; }

  Mac& mac() { return mac_; }
  const Mac& mac() const { return mac_; }
  World& world() { return world_; }
  int ssid() const { return config_.ssid; }
  Dbm tx_power() const { return config_.tx_power; }
  const DeviceConfig& config() const { return config_; }

  /// Registers a hook invoked on every completed send (after OnSendComplete).
  void AddSendCompleteHook(std::function<void(const Frame&, bool)> hook);

  /// Registers a hook invoked on every received frame (after OnFrameReceived).
  void AddReceiveHook(std::function<void(const Frame&)> hook);

 protected:
  /// A frame addressed to this node (or broadcast) arrived.
  virtual void OnFrameReceived(const Frame& frame, Dbm rx_power);

  /// A queued frame finished (delivered or dropped).
  virtual void OnSendComplete(const Frame& frame, bool success);

  World& world_;

 private:
  int id_;
  DeviceConfig config_;
  Channel channel_;
  SimTime rx_enabled_at_ = 0;  ///< Radio deaf until this time (retuning).
  Mac mac_;
  std::set<UhfIndex> detected_mics_;
  std::vector<std::function<void(const Frame&, bool)>> send_hooks_;
  std::vector<std::function<void(const Frame&)>> receive_hooks_;
};

}  // namespace whitefi
