#include "scenario_file.h"

#include <cmath>
#include <stdexcept>

#include "spectrum/campus.h"
#include "spectrum/locales.h"

namespace whitefi::bench {
namespace {

/// A seed key: a non-negative integer.
std::uint64_t LoadSeed(const ConfigFile& config, const std::string& key,
                       long long fallback) {
  const long long seed = config.GetInt(key, fallback);
  if (seed < 0) throw std::runtime_error(key + " must be >= 0");
  return static_cast<std::uint64_t>(seed);
}

/// The run length: a finite, positive number of seconds.
double LoadSeconds(const ConfigFile& config, double fallback) {
  const double seconds = config.GetDouble("seconds", fallback);
  if (!std::isfinite(seconds) || seconds <= 0.0) {
    throw std::runtime_error("seconds must be finite and positive");
  }
  return seconds;
}

}  // namespace

ScenarioConfig LoadScenario(const ConfigFile& config) {
  ScenarioConfig scenario;
  scenario.seed = LoadSeed(config, "seed", 1);
  scenario.measure_s = LoadSeconds(config, 10.0);
  scenario.warmup_s = config.GetDouble("warmup", 1.0);
  if (!std::isfinite(scenario.warmup_s) || scenario.warmup_s < 0.0) {
    throw std::runtime_error("warmup must be finite and >= 0");
  }

  // Map.
  const std::string map_name = config.Get("map.name", "campus");
  Rng map_rng(DeriveSeed(scenario.seed, "scenario_file.map"));
  if (map_name == "campus") {
    scenario.base_map = CampusSimulationMap();
  } else if (map_name == "building5") {
    scenario.base_map = Building5Map();
  } else if (map_name == "urban") {
    scenario.base_map = GenerateLocaleMap(LocaleClass::kUrban, map_rng);
  } else if (map_name == "suburban") {
    scenario.base_map = GenerateLocaleMap(LocaleClass::kSuburban, map_rng);
  } else if (map_name == "rural") {
    scenario.base_map = GenerateLocaleMap(LocaleClass::kRural, map_rng);
  } else if (map_name == "empty") {
    scenario.base_map = SpectrumMap{};
  } else {
    throw std::runtime_error("unknown map.name: " + map_name);
  }
  for (long long tv : config.GetIntList("map.extra_occupied")) {
    scenario.base_map.SetOccupied(IndexOfTvChannel(static_cast<int>(tv)));
  }

  // Network.
  scenario.num_clients = static_cast<int>(config.GetInt("network.clients", 2));
  if (scenario.num_clients < 0) {
    throw std::runtime_error("network.clients must be >= 0");
  }
  scenario.client_map_flip_p = config.GetDouble("network.flip_p", 0.0);
  const int static_width =
      static_cast<int>(config.GetInt("network.static_width", 0));
  if (static_width != 0) {
    for (const Channel& c : scenario.base_map.UsableChannels()) {
      if (static_cast<int>(WidthMHz(c.width)) == static_width) {
        scenario.static_channel = c;
        break;
      }
    }
    if (!scenario.static_channel.has_value()) {
      throw std::runtime_error("no usable channel of static_width " +
                               std::to_string(static_width));
    }
  }

  // Background.
  const int pairs = static_cast<int>(config.GetInt("background.pairs", 0));
  const SimTime ipd =
      config.GetInt("background.ipd_ms", 30) * kTicksPerMs;
  const int payload =
      static_cast<int>(config.GetInt("background.payload", 1000));
  Rng bg_rng(DeriveSeed(scenario.seed, "scenario_file.background"));
  const auto free = scenario.base_map.FreeIndices();
  if (pairs > 0 && free.empty()) {
    throw std::runtime_error("background pairs requested but no free channels");
  }
  if (pairs > 0 && ipd <= 0) {
    throw std::runtime_error("background.ipd_ms must be positive");
  }
  for (int i = 0; i < pairs; ++i) {
    BackgroundSpec spec;
    spec.channel = bg_rng.Pick(free);
    spec.cbr_interval = ipd;
    spec.payload_bytes = payload;
    scenario.background.push_back(spec);
  }

  // Mic.
  if (config.Has("mic.tv_channel")) {
    MicActivation mic;
    mic.channel = IndexOfTvChannel(
        static_cast<int>(config.GetInt("mic.tv_channel")));
    mic.on_time = config.GetDouble("mic.on_s", 5.0) * kSecond;
    mic.off_time = config.GetDouble("mic.off_s", 600.0) * kSecond;
    if (mic.off_time <= mic.on_time) {
      throw std::runtime_error("mic.off_s must be later than mic.on_s");
    }
    scenario.mics.push_back(mic);
  }

  // Client hardening knobs (defaults reproduce the baseline protocol).
  scenario.client_params.chirp_jitter =
      config.GetDouble("client.chirp_jitter",
                       scenario.client_params.chirp_jitter);
  scenario.client_params.chirp_backoff = config.GetBool(
      "client.chirp_backoff", scenario.client_params.chirp_backoff);
  scenario.client_params.chirp_backoff_factor =
      config.GetDouble("client.chirp_backoff_factor",
                       scenario.client_params.chirp_backoff_factor);
  if (config.Has("client.chirp_interval_max_ms")) {
    scenario.client_params.chirp_interval_max =
        config.GetInt("client.chirp_interval_max_ms") * kTicksPerMs;
  }
  scenario.client_params.reconnect_escalation =
      config.GetBool("client.reconnect_escalation",
                     scenario.client_params.reconnect_escalation);
  if (config.Has("client.reconnect_stage_timeout_ms")) {
    scenario.client_params.reconnect_stage_timeout =
        config.GetInt("client.reconnect_stage_timeout_ms") * kTicksPerMs;
  }

  // Geo-db service + resilient sessions ([geodb] section; absent or
  // enabled=false leaves the subsystem off and the run byte-identical).
  GeoDbRuntimeParams& geo = scenario.geodb;
  geo.enabled = config.GetBool("geodb.enabled", false);
  geo.origin_km.x_km = config.GetDouble("geodb.origin_x_km", geo.origin_km.x_km);
  geo.origin_km.y_km = config.GetDouble("geodb.origin_y_km", geo.origin_km.y_km);
  geo.stations = static_cast<int>(config.GetInt("geodb.stations", geo.stations));
  geo.core_radius_km =
      config.GetDouble("geodb.core_radius_km", geo.core_radius_km);
  geo.venues = static_cast<int>(config.GetInt("geodb.venues", geo.venues));
  geo.venue_radius_km =
      config.GetDouble("geodb.venue_radius_km", geo.venue_radius_km);
  geo.venue_spread_km =
      config.GetDouble("geodb.venue_spread_km", geo.venue_spread_km);
  geo.venue_start_min =
      config.GetDouble("geodb.venue_start_min_s", 1.0) * kSecond;
  geo.venue_start_max =
      config.GetDouble("geodb.venue_start_max_s", 6.0) * kSecond;
  geo.venue_on_min = config.GetDouble("geodb.venue_on_min_s", 1.0) * kSecond;
  geo.venue_on_max = config.GetDouble("geodb.venue_on_max_s", 4.0) * kSecond;
  geo.venue_mics = config.GetBool("geodb.venue_mics", geo.venue_mics);
  if (geo.stations < 0 || geo.venues < 0) {
    throw std::runtime_error("geodb.stations / geodb.venues must be >= 0");
  }
  if (geo.venue_start_max < geo.venue_start_min ||
      geo.venue_on_max < geo.venue_on_min || geo.venue_on_min <= 0.0) {
    throw std::runtime_error("geodb venue windows must be ordered and positive");
  }
  // Service knobs.
  geo.service.base_latency =
      config.GetInt("geodb.query_latency_ms", 50) * kTicksPerMs;
  geo.service.per_pending_latency =
      config.GetInt("geodb.per_pending_ms", 20) * kTicksPerMs;
  geo.service.latency_jitter =
      config.GetDouble("geodb.latency_jitter", geo.service.latency_jitter);
  geo.service.max_queue =
      static_cast<int>(config.GetInt("geodb.queue", geo.service.max_queue));
  geo.service.staleness = config.GetDouble("geodb.staleness_s", 0.0) * kSecond;
  geo.service.push_enabled = config.GetBool("geodb.push", true);
  geo.service.push_latency_min =
      config.GetInt("geodb.push_latency_min_ms", 20) * kTicksPerMs;
  geo.service.push_latency_max =
      config.GetInt("geodb.push_latency_max_ms", 200) * kTicksPerMs;
  if (geo.service.max_queue < 1 || geo.service.base_latency < 0 ||
      geo.service.push_latency_max < geo.service.push_latency_min) {
    throw std::runtime_error("invalid geodb service parameters");
  }
  // Session (recovery protocol) knobs.
  geo.session.refresh_interval =
      static_cast<SimTime>(config.GetDouble("geodb.refresh_s", 2.0) * kSecond);
  geo.session.refresh_jitter =
      config.GetDouble("geodb.refresh_jitter", geo.session.refresh_jitter);
  geo.session.refresh_timeout =
      config.GetInt("geodb.refresh_timeout_ms", 400) * kTicksPerMs;
  geo.session.backoff_base = config.GetInt("geodb.backoff_ms", 200) * kTicksPerMs;
  geo.session.backoff_factor =
      config.GetDouble("geodb.backoff_factor", geo.session.backoff_factor);
  geo.session.backoff_max =
      config.GetInt("geodb.backoff_max_ms", 1600) * kTicksPerMs;
  geo.session.backoff_jitter =
      config.GetDouble("geodb.backoff_jitter", geo.session.backoff_jitter);
  geo.session.breaker_failures = static_cast<int>(
      config.GetInt("geodb.breaker_failures", geo.session.breaker_failures));
  geo.session.breaker_cooldown =
      config.GetInt("geodb.breaker_cooldown_ms", 1000) * kTicksPerMs;
  geo.session.stale_after = config.GetDouble("geodb.stale_after_s", 20.0) * kSecond;
  geo.session.guard_km = config.GetDouble("geodb.guard_km", geo.session.guard_km);
  geo.session.requery_km =
      config.GetDouble("geodb.requery_km", geo.session.requery_km);
  geo.session.subscribe_push = config.GetBool("geodb.subscribe_push", true);
  geo.session.enforce_interval =
      config.GetInt("geodb.enforce_ms", 200) * kTicksPerMs;
  if (geo.session.refresh_interval <= 0 || geo.session.refresh_timeout <= 0 ||
      geo.session.backoff_base <= 0 || geo.session.backoff_factor < 1.0 ||
      geo.session.backoff_max < geo.session.backoff_base ||
      geo.session.breaker_failures < 1 || geo.session.breaker_cooldown <= 0 ||
      geo.session.stale_after <= 0.0 || geo.session.guard_km < 0.0 ||
      geo.session.requery_km < 0.0 || geo.session.enforce_interval <= 0) {
    throw std::runtime_error("invalid geodb session parameters");
  }

  // Client mobility ([mobility] section; requires geodb.enabled to move
  // anything — positions feed the geo sessions).
  geo.mobility = config.GetBool("mobility.enabled", false);
  geo.waypoint.range_m = config.GetDouble("mobility.range_m", geo.waypoint.range_m);
  geo.waypoint.speed_min_mps =
      config.GetDouble("mobility.speed_min_mps", geo.waypoint.speed_min_mps);
  geo.waypoint.speed_max_mps =
      config.GetDouble("mobility.speed_max_mps", geo.waypoint.speed_max_mps);
  geo.waypoint.pause_min = static_cast<SimTime>(
      config.GetDouble("mobility.pause_min_s", 0.0) * kSecond);
  geo.waypoint.pause_max = static_cast<SimTime>(
      config.GetDouble("mobility.pause_max_s", 2.0) * kSecond);
  geo.waypoint.tick = config.GetInt("mobility.tick_ms", 100) * kTicksPerMs;
  if (geo.waypoint.range_m < 0.0 || geo.waypoint.speed_min_mps <= 0.0 ||
      geo.waypoint.speed_max_mps < geo.waypoint.speed_min_mps ||
      geo.waypoint.pause_max < geo.waypoint.pause_min ||
      geo.waypoint.tick <= 0) {
    throw std::runtime_error("invalid mobility parameters");
  }

  // Fault schedule ([fault] section; absent = no injector).
  scenario.faults = ParseFaultPlan(config);
  scenario.fault_seed = LoadSeed(config, "fault.seed", 0);
  return scenario;
}

bool IsCityScenario(const ConfigFile& config) {
  // Any [city] key marks the file; city.aps alone is enough to ask for
  // the default city.  Has() does not consume, so a false answer leaves
  // the unknown-key report untouched.
  for (const std::string& key : config.Keys()) {
    if (key.rfind("city.", 0) == 0) return true;
  }
  return false;
}

CityScenario LoadCityScenario(const ConfigFile& config) {
  CityScenario scenario;
  shard::CityParams& city = scenario.city;
  city.seed = LoadSeed(config, "seed", 1);
  scenario.seconds = LoadSeconds(config, 5.0);

  // [city] — the generator parameters (see shard/city.h for semantics).
  city.width_m = config.GetDouble("city.width_m", city.width_m);
  city.height_m = config.GetDouble("city.height_m", city.height_m);
  city.tile_m = config.GetDouble("city.tile_m", city.tile_m);
  const std::string placement = config.Get("city.placement", "grid");
  if (placement == "grid") {
    city.placement = shard::ApPlacement::kGrid;
  } else if (placement == "poisson") {
    city.placement = shard::ApPlacement::kPoisson;
  } else {
    throw std::invalid_argument("unknown city.placement: " + placement +
                                " (expected grid or poisson)");
  }
  city.num_aps = static_cast<int>(config.GetInt("city.aps", city.num_aps));
  city.clients_per_ap = static_cast<int>(
      config.GetInt("city.clients_per_ap", city.clients_per_ap));
  city.cell_radius_m =
      config.GetDouble("city.cell_radius_m", city.cell_radius_m);
  city.tx_power_dbm = config.GetDouble("city.tx_power_dbm", city.tx_power_dbm);
  city.traffic = config.Get("city.traffic", city.traffic);
  city.payload_bytes =
      static_cast<int>(config.GetInt("city.payload", city.payload_bytes));
  city.cbr_interval = config.GetInt("city.cbr_interval_ms",
                                    city.cbr_interval / kTicksPerMs) *
                      kTicksPerMs;
  city.num_mics = static_cast<int>(config.GetInt("city.mics", city.num_mics));
  city.mic_start_s = config.GetDouble("city.mic_start_s", city.mic_start_s);
  city.mic_period_s = config.GetDouble("city.mic_period_s", city.mic_period_s);
  city.mic_duration_s =
      config.GetDouble("city.mic_duration_s", city.mic_duration_s);
  city.num_roams = static_cast<int>(config.GetInt("city.roams", city.num_roams));
  city.roam_start_s = config.GetDouble("city.roam_start_s", city.roam_start_s);
  city.roam_period_s =
      config.GetDouble("city.roam_period_s", city.roam_period_s);
  shard::ValidateCityParams(city);

  // [shards] — federation knobs.  Deliberately no shard *count* key: the
  // count maps tiles onto threads, so it lives on the command line with
  // the other execution knobs (--jobs style), never in the science.
  scenario.engine.horizon = config.GetInt("shards.horizon_us", 0);
  if (scenario.engine.horizon < 0) {
    throw std::invalid_argument("shards.horizon_us must be >= 0");
  }
  scenario.engine.trace = config.GetBool("shards.trace", false);
  scenario.engine.audit = config.GetBool("shards.audit", false);
  return scenario;
}

}  // namespace whitefi::bench
