#include "scenario_file.h"

#include <stdexcept>

#include "fuzz.h"
#include "spectrum/campus.h"
#include "spectrum/locales.h"

namespace whitefi::bench {
namespace {

/// Reads `key` into `field` as the field's type, within [min, max]; an
/// absent key keeps the field's default.
template <typename T>
void Read(const ConfigFile& config, const std::string& key, T& field,
          std::type_identity_t<T> min = std::numeric_limits<T>::lowest(),
          std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  field = config.Get<T>(key, field, min, max);
}

/// Reads the `_ms` key into the ticks `field`: whole ms in [min_ms,
/// kMaxDurationMs]; an absent key keeps the field's default.
void ReadMs(const ConfigFile& config, const std::string& key, SimTime& field,
            SimTime min_ms = -kMaxDurationMs) {
  field = kTicksPerMs * config.Get<SimTime>(key, field / kTicksPerMs,
                                            min_ms, kMaxDurationMs);
}

/// A `_s` key: finite seconds in [min_s, kMaxDurationS].
double Seconds(const ConfigFile& config, const std::string& key,
               double fallback_s, double min_s = -kMaxDurationS) {
  return config.Get<double>(key, fallback_s, min_s, kMaxDurationS);
}

/// Refuses `hi` below `lo`, naming both keys.
template <typename T>
void CheckOrder(T lo, T hi, const std::string& lo_key,
                const std::string& hi_key) {
  if (hi < lo) throw std::runtime_error(hi_key + " must be >= " + lo_key);
}

}  // namespace

ScenarioConfig LoadScenario(const ConfigFile& config) {
  ScenarioConfig scenario;
  Read(config, "seed", scenario.seed);
  scenario.measure_s = Seconds(config, "seconds", 10.0, kPositive);
  scenario.warmup_s = Seconds(config, "warmup", 1.0, 0.0);

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
  for (int tv : config.GetList<int>("map.extra_occupied")) {
    scenario.base_map.SetOccupied(IndexOfTvChannel(tv));
  }

  // Network.
  // Two clients, not ScenarioConfig's four: the standard cell.
  scenario.num_clients = config.Get<int>("network.clients", 2, 0);
  Read(config, "network.flip_p", scenario.client_map_flip_p, 0.0, 1.0);
  const int static_width = config.Get<int>("network.static_width", 0);
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
  BackgroundSpec spec;  // Its defaults are the description's.
  const int pairs = config.Get<int>("background.pairs", 0, 0);
  ReadMs(config, "background.ipd_ms", spec.cbr_interval);
  Read(config, "background.payload", spec.payload_bytes);
  Rng bg_rng(DeriveSeed(scenario.seed, "scenario_file.background"));
  const auto free = scenario.base_map.FreeIndices();
  if (pairs > 0 && free.empty()) {
    throw std::runtime_error("background pairs requested but no free channels");
  }
  if (pairs > 0 && spec.cbr_interval <= 0) {
    throw std::runtime_error("background.ipd_ms must be positive");
  }
  for (int i = 0; i < pairs; ++i) {
    spec.channel = bg_rng.Pick(free);
    scenario.background.push_back(spec);
  }

  // Mic.
  if (config.Has("mic.tv_channel")) {
    MicActivation mic;
    mic.channel = IndexOfTvChannel(config.Get<int>("mic.tv_channel", 0));
    mic.on_time = Seconds(config, "mic.on_s", 5.0, 0.0) * kSecond;
    mic.off_time = Seconds(config, "mic.off_s", 600.0, 0.0) * kSecond;
    if (mic.off_time <= mic.on_time) {
      throw std::runtime_error("mic.off_s must be later than mic.on_s");
    }
    scenario.mics.push_back(mic);
  }

  // Client hardening knobs (defaults reproduce the baseline protocol;
  // ValidateClientParams bounds them when the client is built).
  ClientParams& client = scenario.client_params;
  Read(config, "client.chirp_jitter", client.chirp_jitter);
  client.chirp_backoff =
      config.GetBool("client.chirp_backoff", client.chirp_backoff);
  Read(config, "client.chirp_backoff_factor", client.chirp_backoff_factor);
  ReadMs(config, "client.chirp_interval_max_ms", client.chirp_interval_max);
  client.reconnect_escalation = config.GetBool("client.reconnect_escalation",
                                               client.reconnect_escalation);
  ReadMs(config, "client.reconnect_stage_timeout_ms",
         client.reconnect_stage_timeout);

  // Geo-db service + resilient sessions ([geodb] section; absent or
  // enabled=false leaves the subsystem off and the run byte-identical).
  GeoDbRuntimeParams& geo = scenario.geodb;
  geo.enabled = config.GetBool("geodb.enabled", false);
  Read(config, "geodb.origin_x_km", geo.origin_km.x_km);
  Read(config, "geodb.origin_y_km", geo.origin_km.y_km);
  Read(config, "geodb.stations", geo.stations, 0);
  Read(config, "geodb.core_radius_km", geo.core_radius_km);
  Read(config, "geodb.venues", geo.venues, 0);
  Read(config, "geodb.venue_radius_km", geo.venue_radius_km);
  Read(config, "geodb.venue_spread_km", geo.venue_spread_km);
  geo.venue_start_min =
      Seconds(config, "geodb.venue_start_min_s", 1.0) * kSecond;
  geo.venue_start_max =
      Seconds(config, "geodb.venue_start_max_s", 6.0) * kSecond;
  geo.venue_on_min =
      Seconds(config, "geodb.venue_on_min_s", 1.0, kPositive) * kSecond;
  geo.venue_on_max = Seconds(config, "geodb.venue_on_max_s", 4.0) * kSecond;
  geo.venue_mics = config.GetBool("geodb.venue_mics", geo.venue_mics);
  CheckOrder(geo.venue_start_min, geo.venue_start_max,
             "geodb.venue_start_min_s", "geodb.venue_start_max_s");
  CheckOrder(geo.venue_on_min, geo.venue_on_max, "geodb.venue_on_min_s",
             "geodb.venue_on_max_s");
  // Service knobs.
  GeoDbServiceParams& service = geo.service;
  ReadMs(config, "geodb.query_latency_ms", service.base_latency, 0);
  ReadMs(config, "geodb.per_pending_ms", service.per_pending_latency);
  Read(config, "geodb.latency_jitter", service.latency_jitter);
  Read(config, "geodb.queue", service.max_queue, 1);
  service.staleness = Seconds(config, "geodb.staleness_s", 0.0, 0.0) * kSecond;
  service.push_enabled = config.GetBool("geodb.push", true);
  ReadMs(config, "geodb.push_latency_min_ms", service.push_latency_min);
  ReadMs(config, "geodb.push_latency_max_ms", service.push_latency_max);
  CheckOrder(service.push_latency_min, service.push_latency_max,
             "geodb.push_latency_min_ms", "geodb.push_latency_max_ms");
  // Session (recovery protocol) knobs.
  GeoDbSessionParams& session = geo.session;
  // At least one tick: a 0-tick refresh would never advance.
  session.refresh_interval = static_cast<SimTime>(
      Seconds(config, "geodb.refresh_s", 2.0, 1.0 / kTicksPerSec) * kSecond);
  Read(config, "geodb.refresh_jitter", session.refresh_jitter);
  ReadMs(config, "geodb.refresh_timeout_ms", session.refresh_timeout, 1);
  ReadMs(config, "geodb.backoff_ms", session.backoff_base, 1);
  Read(config, "geodb.backoff_factor", session.backoff_factor, 1.0);
  ReadMs(config, "geodb.backoff_max_ms", session.backoff_max);
  CheckOrder(session.backoff_base, session.backoff_max, "geodb.backoff_ms",
             "geodb.backoff_max_ms");
  Read(config, "geodb.backoff_jitter", session.backoff_jitter);
  Read(config, "geodb.breaker_failures", session.breaker_failures, 1);
  ReadMs(config, "geodb.breaker_cooldown_ms", session.breaker_cooldown, 1);
  session.stale_after =
      Seconds(config, "geodb.stale_after_s", 20.0, kPositive) * kSecond;
  Read(config, "geodb.guard_km", session.guard_km, 0.0);
  Read(config, "geodb.requery_km", session.requery_km, 0.0);
  session.subscribe_push = config.GetBool("geodb.subscribe_push", true);
  ReadMs(config, "geodb.enforce_ms", session.enforce_interval, 1);

  // Client mobility ([mobility] section; requires geodb.enabled to move
  // anything — positions feed the geo sessions).
  geo.mobility = config.GetBool("mobility.enabled", false);
  MobilityParams& waypoint = geo.waypoint;
  Read(config, "mobility.range_m", waypoint.range_m, 0.0);
  Read(config, "mobility.speed_min_mps", waypoint.speed_min_mps, kPositive);
  Read(config, "mobility.speed_max_mps", waypoint.speed_max_mps);
  CheckOrder(waypoint.speed_min_mps, waypoint.speed_max_mps,
             "mobility.speed_min_mps", "mobility.speed_max_mps");
  waypoint.pause_min = static_cast<SimTime>(
      Seconds(config, "mobility.pause_min_s", 0.0) * kSecond);
  waypoint.pause_max = static_cast<SimTime>(
      Seconds(config, "mobility.pause_max_s", 2.0) * kSecond);
  CheckOrder(waypoint.pause_min, waypoint.pause_max, "mobility.pause_min_s",
             "mobility.pause_max_s");
  ReadMs(config, "mobility.tick_ms", waypoint.tick, 1);

  // Fault schedule ([fault] section; absent = no injector).
  scenario.faults = ParseFaultPlan(config);
  Read(config, "fault.seed", scenario.fault_seed);
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
  Read(config, "seed", city.seed);
  scenario.seconds = Seconds(config, "seconds", 5.0, kPositive);

  // [city] — the generator parameters (see shard/city.h for semantics;
  // ValidateCityParams bounds them).
  Read(config, "city.width_m", city.width_m);
  Read(config, "city.height_m", city.height_m);
  Read(config, "city.tile_m", city.tile_m);
  const std::string placement = config.Get("city.placement", "grid");
  if (placement == "grid") {
    city.placement = shard::ApPlacement::kGrid;
  } else if (placement == "poisson") {
    city.placement = shard::ApPlacement::kPoisson;
  } else {
    throw std::invalid_argument("unknown city.placement: " + placement +
                                " (expected grid or poisson)");
  }
  Read(config, "city.aps", city.num_aps);
  Read(config, "city.clients_per_ap", city.clients_per_ap);
  Read(config, "city.cell_radius_m", city.cell_radius_m);
  Read(config, "city.tx_power_dbm", city.tx_power_dbm);
  city.traffic = config.Get("city.traffic", city.traffic);
  Read(config, "city.payload", city.payload_bytes);
  ReadMs(config, "city.cbr_interval_ms", city.cbr_interval);
  Read(config, "city.mics", city.num_mics);
  city.mic_start_s = Seconds(config, "city.mic_start_s", city.mic_start_s);
  city.mic_period_s = Seconds(config, "city.mic_period_s", city.mic_period_s);
  city.mic_duration_s =
      Seconds(config, "city.mic_duration_s", city.mic_duration_s);
  Read(config, "city.roams", city.num_roams);
  city.roam_start_s = Seconds(config, "city.roam_start_s", city.roam_start_s);
  city.roam_period_s =
      Seconds(config, "city.roam_period_s", city.roam_period_s);
  shard::ValidateCityParams(city);

  // [shards] — federation knobs.  Deliberately no shard *count* key: the
  // count maps tiles onto threads, so it lives on the command line with
  // the other execution knobs (--jobs style), never in the science.
  Read(config, "shards.horizon_us", scenario.engine.horizon, 0, kMaxDuration);
  scenario.engine.audit_config = LoadAuditConfig(config);
  scenario.engine.trace = config.GetBool("shards.trace", false);
  scenario.engine.audit = config.GetBool("shards.audit", false);
  return scenario;
}

}  // namespace whitefi::bench
