// Scenario description files — the QualNet-style workflow where "every
// node reads its initial spectrum map from a configuration file".
//
// Example:
//
//   seed = 7
//   seconds = 20
//   [map]
//   name = campus            # campus | building5 | rural|urban|suburban
//   extra_occupied = 27, 31  # TV channels occupied on top of the base map
//   [network]
//   clients = 4
//   static_width = 0         # 0 = adaptive, else 5|10|20
//   [background]
//   pairs = 10
//   ipd_ms = 30
//   payload = 1000
//   [mic]
//   tv_channel = 28          # omit section for no mic
//   on_s = 5
//   off_s = 600
//   [client]                 # hardening knobs (defaults = baseline)
//   chirp_jitter = 0.2
//   chirp_backoff = true
//   reconnect_escalation = true
//   [fault]                  # fault injection (see src/fault/fault.h)
//   scanner_outages = 3-8    # windows in seconds
//   beacon_drop_p = 0.1
//   storm_start_s = 5        # churn storm
//   storm_mics = 3
//
// Each key is read as the type the scenario stores, under one rule: text
// that is not a number (`extra_occupied = 28abc`) is a configuration
// error (ConfigError, exit 2); a number the key cannot take (`clients =
// 4294967297`, `on_s = nan`, `flip_p = 7`, a time past kMaxDuration) is a
// scenario that cannot be built (exit 1), as is a failed check between
// keys.  Bounds a constructor enforces are left to it.
#pragma once

#include "scenario.h"
#include "shard/city.h"
#include "shard/engine.h"
#include "util/config.h"

namespace whitefi::bench {

/// Builds a ScenarioConfig from a parsed description.  Throws ConfigError
/// on a value that is not a number, and std::runtime_error on an unknown
/// map name or a number a key cannot take (see above).
ScenarioConfig LoadScenario(const ConfigFile& config);

/// True iff the description declares a [city] section — a city-scale
/// sharded scenario run through shard::ShardEngine instead of the
/// single-world RunScenario path.
bool IsCityScenario(const ConfigFile& config);

/// A parsed city-scale description.  `engine.shards` stays at its
/// default (1); the shard count is an execution knob supplied by the
/// caller (scenario_cli --shards), never by the file — the science must
/// not depend on it.
struct CityScenario {
  shard::CityParams city;
  shard::ShardEngineConfig engine;
  double seconds = 5.0;
};

/// Builds a CityScenario from a description with a [city] section
/// (optionally a [shards] section for horizon/trace overrides, and
/// audit.* for the auditor).  Throws as LoadScenario does, and
/// std::invalid_argument on a city the generator cannot build.
CityScenario LoadCityScenario(const ConfigFile& config);

}  // namespace whitefi::bench
