#include "scenario.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/parallel.h"
#include "util/rng.h"

namespace whitefi::bench {
namespace {

constexpr int kWhiteFiSsid = 1;

/// Deterministic per-node map realization shared by RunScenario and
/// StaticCandidates: index 0 is the AP, 1..N the clients.
std::vector<SpectrumMap> NodeMaps(const ScenarioConfig& config) {
  std::vector<SpectrumMap> maps;
  Rng rng(DeriveSeed(config.seed, "scenario.maps"));
  for (int i = 0; i <= config.num_clients; ++i) {
    maps.push_back(config.client_map_flip_p > 0.0
                       ? config.base_map.RandomlyFlipped(
                             config.client_map_flip_p, rng)
                       : config.base_map);
  }
  return maps;
}

SpectrumMap UnionOfMaps(const std::vector<SpectrumMap>& maps) {
  SpectrumMap u;
  for (const auto& m : maps) u = u.UnionWith(m);
  return u;
}

}  // namespace

std::uint64_t ScenarioFaultSeed(const ScenarioConfig& config) {
  return config.fault_seed != 0 ? config.fault_seed
                                : DeriveSeed(config.seed, "scenario.faults");
}

std::vector<Channel> StaticCandidates(const ScenarioConfig& config,
                                      ChannelWidth w) {
  const SpectrumMap everywhere_free = UnionOfMaps(NodeMaps(config));
  std::vector<Channel> candidates;
  for (const Channel& c : ChannelsOfWidth(w)) {
    if (everywhere_free.CanUse(c)) candidates.push_back(c);
  }
  return candidates;
}

RunResult RunScenario(const ScenarioConfig& config) {
  WorldConfig world_config;
  world_config.seed = config.seed;
  world_config.obs = config.obs;
  // The auditor rides the Observability bundle and must be in place
  // before the World exists: the medium captures the bundle in the World
  // constructor.
  world_config.obs.auditor = config.auditor;
  // The injector (when any fault is configured) is declared before the
  // World so it outlives every device, and is seeded from its own stream:
  // enabling faults must not shift the World's RNG fork sequence.
  std::unique_ptr<FaultInjector> injector;
  if (!config.faults.Empty()) {
    injector =
        std::make_unique<FaultInjector>(config.faults, ScenarioFaultSeed(config));
    world_config.faults = injector.get();
  }
  World world(world_config);
  if (config.auditor != nullptr) config.auditor->Attach(world);
  // The geo-db runtime (when enabled) is likewise seeded purely from named
  // substreams of config.seed, so a disabled run stays byte-identical.
  std::unique_ptr<GeoDbRuntime> geodb;
  if (config.geodb.enabled) {
    geodb = std::make_unique<GeoDbRuntime>(world, config.geodb, config.seed,
                                           injector.get());
  }
  Rng rng = world.NewRng();

  const std::vector<SpectrumMap> maps = NodeMaps(config);
  const SpectrumMap union_map = UnionOfMaps(maps);

  // Pick the initial channel: the pinned static one, or the assigner's
  // choice under the OR'd maps (association is assumed complete at t=0).
  // With a geo-db the boot decision also respects the guarded bootstrap
  // map at the cell origin, so the network does not start on a
  // geo-protected channel only to vacate at t=0.
  SpectrumMap boot_view = union_map;
  if (geodb != nullptr) {
    boot_view = boot_view.UnionWith(geodb->BootstrapMapAt(Position{0.0, 0.0}));
  }
  AssignmentInputs boot;
  boot.ap_map = boot_view;
  boot.ap_observation = EmptyBandObservation();
  for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
    boot.ap_observation[static_cast<std::size_t>(c)].incumbent =
        boot_view.Occupied(c);
  }
  SpectrumAssigner boot_assigner(config.ap_params.assignment);
  Channel initial{0, ChannelWidth::kW5};
  if (config.static_channel.has_value()) {
    initial = *config.static_channel;
  } else {
    const auto decision = boot_assigner.SelectInitial(boot);
    if (!decision.channel.has_value()) return RunResult{};
    initial = *decision.channel;
  }
  const Channel backup =
      boot_assigner.SelectBackup(boot, initial).value_or(initial);

  // WhiteFi network.
  ApParams ap_params = config.ap_params;
  ap_params.adaptive = !config.static_channel.has_value();
  DeviceConfig ap_device;
  ap_device.position = {0.0, 0.0};
  ap_device.ssid = kWhiteFiSsid;
  ap_device.tv_map = maps[0];
  ApNode& ap = world.Create<ApNode>(ap_device, ap_params, initial, backup);
  if (config.auditor != nullptr) config.auditor->RegisterAp(ap.NodeId());

  std::vector<ClientNode*> clients;
  std::vector<int> client_ids;
  for (int i = 0; i < config.num_clients; ++i) {
    DeviceConfig device;
    // Clients spread over the cell (UHF range is km-scale; paper Figure 1's
    // campus spans ~800 m).
    const double client_r = rng.Uniform(200.0, 400.0);
    const double client_theta = rng.Uniform(0.0, 2.0 * M_PI);
    device.position = {client_r * std::cos(client_theta),
                       client_r * std::sin(client_theta)};
    device.ssid = kWhiteFiSsid;
    device.tv_map = maps[static_cast<std::size_t>(i) + 1];
    ClientParams params = config.client_params;
    clients.push_back(&world.Create<ClientNode>(device, params, initial,
                                                backup, ap.NodeId()));
    client_ids.push_back(clients.back()->NodeId());
    if (config.auditor != nullptr) {
      config.auditor->RegisterClient(clients.back()->NodeId(), params);
    }
  }
  if (geodb != nullptr) {
    geodb->AddNode(ap, /*mobile=*/false);
    for (ClientNode* client : clients) geodb->AddNode(*client, /*mobile=*/true);
  }

  // Backlogged flows both ways.
  SaturatedSource downlink(ap, client_ids, config.payload_bytes);
  std::vector<std::unique_ptr<SaturatedSource>> uplinks;
  for (ClientNode* client : clients) {
    uplinks.push_back(std::make_unique<SaturatedSource>(
        *client, ap.NodeId(), config.payload_bytes));
  }

  // Background pairs.
  std::vector<std::unique_ptr<CbrSource>> cbr_sources;
  std::vector<std::unique_ptr<MarkovOnOffSource>> markov_sources;
  int next_ssid = 100;
  for (const BackgroundSpec& spec : config.background) {
    const Channel home{spec.channel, ChannelWidth::kW5};
    DeviceConfig tx_config;
    // Background pairs are neighboring networks "within transmission
    // range" of the AP — hundreds of meters out.  At that range a narrow
    // radio's energy detector cannot sense a wide transmission (only a
    // slice of its power lands in-band), so background traffic punches
    // holes in wide channels — the physics behind MCham's product form.
    const double bg_r = rng.Uniform(150.0, 500.0);
    const double bg_theta = rng.Uniform(0.0, 2.0 * M_PI);
    tx_config.position = {bg_r * std::cos(bg_theta),
                          bg_r * std::sin(bg_theta)};
    tx_config.ssid = next_ssid;
    tx_config.is_ap = true;
    tx_config.initial_channel = home;
    tx_config.tv_map = config.base_map;
    Device& tx = world.Create<Device>(tx_config);
    DeviceConfig rx_config = tx_config;
    rx_config.is_ap = false;
    rx_config.position = {tx_config.position.x + rng.Uniform(-40.0, 40.0),
                          tx_config.position.y + rng.Uniform(-40.0, 40.0)};
    Device& rx = world.Create<Device>(rx_config);
    ++next_ssid;

    if (spec.markov.has_value()) {
      markov_sources.push_back(std::make_unique<MarkovOnOffSource>(
          tx, rx.NodeId(), spec.payload_bytes, spec.cbr_interval,
          *spec.markov));
      markov_sources.back()->Start();
    } else {
      cbr_sources.push_back(std::make_unique<CbrSource>(
          tx, rx.NodeId(), spec.payload_bytes, spec.cbr_interval));
      CbrSource* source = cbr_sources.back().get();
      if (spec.on_at <= 0) {
        source->Start();
      } else {
        source->Start();
        source->SetActive(false);
        world.sim().Schedule(spec.on_at,
                             [source] { source->SetActive(true); });
      }
      if (spec.off_at >= 0) {
        world.sim().Schedule(spec.off_at,
                             [source] { source->SetActive(false); });
      }
    }
  }

  world.SetMicSchedule(config.mics);
  // Churn storms from the fault plan become extra mic activations over the
  // channels every node agrees are free (so a storm always threatens the
  // channels the network actually wants to use).
  if (injector != nullptr && !config.faults.storms.empty()) {
    std::vector<UhfIndex> storm_channels;
    for (UhfIndex c = 0; c < kNumUhfChannels; ++c) {
      if (union_map.Free(c)) storm_channels.push_back(c);
    }
    for (const MicActivation& mic : injector->ExpandStorms(storm_channels)) {
      world.AddMic(mic);
    }
  }
  if (geodb != nullptr) {
    // After SetMicSchedule (venue mics append to the installed schedule),
    // before StartAll (bootstrap maps must be in place when the AP's
    // first assignment and the clients' first scans run).
    geodb->Start();
    if (config.auditor != nullptr) {
      // The runtime's suggestion covers the notification path; add the
      // detection latency and a vacate allowance mirroring the mic-path
      // budget's slack (the AP may legally defer past announce re-checks).
      config.auditor->SetGeoTruth(
          geodb.get(), geodb->SuggestedGeoBudget() +
                           world.config().incumbent_detect_latency +
                           700 * kTicksPerMs);
    }
  }
  world.StartAll();
  downlink.Start();
  for (auto& uplink : uplinks) uplink->Start();
  if (config.customize) config.customize(world);

  world.RunFor(config.warmup_s);
  world.ResetAppBytes();
  world.RunFor(config.measure_s);

  RunResult result;
  const double bits =
      8.0 * static_cast<double>(world.AppBytesInSsid(kWhiteFiSsid));
  result.aggregate_mbps = bits / config.measure_s / 1e6;
  result.per_client_mbps =
      config.num_clients > 0 ? result.aggregate_mbps / config.num_clients
                             : result.aggregate_mbps;
  result.switches = ap.num_switches();
  result.final_channel = ap.main_channel();
  for (ClientNode* client : clients) {
    result.disconnects += client->disconnect_events();
    for (SimTime outage : client->outages()) {
      result.outages_s.push_back(ToSeconds(outage));
      result.max_outage_s = std::max(result.max_outage_s, ToSeconds(outage));
    }
  }
  if (injector != nullptr) result.faults_injected = injector->InjectedCount();
  if (geodb != nullptr) {
    result.geodb_degraded = geodb->degraded_transitions();
    result.geodb_recovered = geodb->recovered_transitions();
    result.geodb_queries = geodb->service().queries();
    result.geodb_shed = geodb->service().shed();
    result.geodb_pushes = geodb->service().pushes_sent();
    // The oracle dies with this scope; a reused auditor must not keep a
    // dangling ground-truth pointer.
    if (config.auditor != nullptr) config.auditor->SetGeoTruth(nullptr, 0);
  }
  return result;
}

double OptStaticThroughput(const ScenarioConfig& config, ChannelWidth w,
                           double reduced_measure_s, int jobs) {
  const std::vector<Channel> candidates = StaticCandidates(config, w);
  // Every candidate run derives all of its randomness from the trial
  // config (the world is seeded from config.seed), so the sweep is a pure
  // index -> throughput map; results are reduced serially in index order.
  const std::vector<double> throughputs =
      ParallelMap(jobs, candidates.size(), [&](std::size_t i) {
        ScenarioConfig trial = config;
        trial.static_channel = candidates[i];
        trial.obs = {};  // Baseline sweeps must not pollute caller metrics.
        if (reduced_measure_s > 0.0) trial.measure_s = reduced_measure_s;
        return RunScenario(trial).per_client_mbps;
      });
  double best = 0.0;
  for (double mbps : throughputs) best = std::max(best, mbps);
  return best;
}

std::array<double, 3> OptThroughputPerWidth(const ScenarioConfig& config,
                                            double reduced_measure_s,
                                            int jobs) {
  std::array<double, 3> best{};
  for (std::size_t w = 0; w < kAllWidths.size(); ++w) {
    best[w] =
        OptStaticThroughput(config, kAllWidths[w], reduced_measure_s, jobs);
  }
  return best;
}

}  // namespace whitefi::bench
