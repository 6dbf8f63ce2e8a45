#include "shard/city.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.h"

namespace whitefi::shard {

namespace {

/// Clamps `p` into `rect` with a 1 m inset so TileOf stays unambiguous.
Position ClampIntoRect(Position p, const TileRect& rect) {
  p.x = std::clamp(p.x, rect.x0 + 1.0, rect.x1 - 1.0);
  p.y = std::clamp(p.y, rect.y0 + 1.0, rect.y1 - 1.0);
  return p;
}

}  // namespace

void ValidateCityParams(const CityParams& params) {
  if (!(params.width_m > 0.0) || !(params.height_m > 0.0)) {
    throw std::invalid_argument("city extents must be positive");
  }
  if (params.tile_m < 0.0) {
    throw std::invalid_argument("city tile edge must be non-negative");
  }
  if (params.num_aps <= 0) {
    throw std::invalid_argument("city needs at least one AP");
  }
  if (params.clients_per_ap < 0) {
    throw std::invalid_argument("city clients_per_ap must be non-negative");
  }
  if (!(params.cell_radius_m > 0.0)) {
    throw std::invalid_argument("city cell radius must be positive");
  }
  if (params.traffic != "cbr" && params.traffic != "saturated") {
    throw std::invalid_argument("city traffic must be 'cbr' or 'saturated'");
  }
  if (params.payload_bytes <= 0) {
    throw std::invalid_argument("city payload bytes must be positive");
  }
  if (params.cbr_interval <= 0) {
    throw std::invalid_argument("city cbr interval must be positive");
  }
  if (params.num_mics < 0 || params.num_roams < 0) {
    throw std::invalid_argument("city mic/roam counts must be non-negative");
  }
  if (params.num_roams > 0 && params.traffic != "cbr") {
    throw std::invalid_argument(
        "city roams require cbr traffic (sessions pause and resume)");
  }
  if (params.num_roams > 0 && params.clients_per_ap == 0) {
    throw std::invalid_argument("city roams need at least one client per AP");
  }
  if (params.num_mics > 0 &&
      (!(params.mic_period_s > 0.0) || !(params.mic_duration_s > 0.0))) {
    throw std::invalid_argument("city mic period/duration must be positive");
  }
  if (params.num_roams > 0 && !(params.roam_period_s > 0.0)) {
    throw std::invalid_argument("city roam period must be positive");
  }
}

CityLayout GenerateCity(const CityParams& params, const MediumParams& medium) {
  ValidateCityParams(params);

  const double min_edge = MinTileEdgeMeters(medium, params.tx_power_dbm);
  double tile_m = params.tile_m;
  if (tile_m == 0.0) {
    tile_m = min_edge;
  } else if (tile_m < min_edge) {
    throw std::invalid_argument(
        "city tile edge below the interference cutoff (" +
        std::to_string(min_edge) + " m): cross-tile influence would leak "
        "past the 8-neighborhood");
  }
  if (tile_m > params.width_m || tile_m > params.height_m) {
    // A city smaller than one cutoff collapses to a single tile.
    tile_m = std::min(params.width_m, params.height_m);
  }

  CityLayout layout{Partition(params.width_m, params.height_m, tile_m), {},
                    {}, {}, {}};

  // -- AP placement --------------------------------------------------------
  Rng place_rng(DeriveSeed(params.seed, "city.placement"));
  const int n = params.num_aps;
  layout.cells.reserve(static_cast<std::size_t>(n));
  const int grid = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  for (int i = 0; i < n; ++i) {
    CellPlan cell;
    if (params.placement == ApPlacement::kGrid) {
      const int row = i / grid;
      const int col = i % grid;
      const double sx = params.width_m / grid;
      const double sy = params.height_m / grid;
      cell.ap.x = (col + 0.5) * sx + place_rng.Uniform(-0.15 * sx, 0.15 * sx);
      cell.ap.y = (row + 0.5) * sy + place_rng.Uniform(-0.15 * sy, 0.15 * sy);
    } else {
      cell.ap.x = place_rng.Uniform(0.0, params.width_m);
      cell.ap.y = place_rng.Uniform(0.0, params.height_m);
    }
    cell.tile = layout.partition.TileOf(cell.ap);
    cell.ap = ClampIntoRect(cell.ap, layout.partition.Rect(cell.tile));
    cell.ssid = i + 1;
    // Deterministic channel plan: stride the band so neighboring cells
    // land on different narrow channels (spatial reuse, as deployed).
    const UhfIndex main = (7 * i) % kNumUhfChannels;
    UhfIndex backup = (main + 11) % kNumUhfChannels;
    if (backup == main) backup = (backup + 1) % kNumUhfChannels;
    cell.main = Channel{main, ChannelWidth::kW5};
    cell.backup = Channel{backup, ChannelWidth::kW5};
    layout.cells.push_back(cell);
  }

  // -- Clients: clustered around the AP, confined to its tile --------------
  Rng client_rng(DeriveSeed(params.seed, "city.clients"));
  for (CellPlan& cell : layout.cells) {
    const TileRect rect = layout.partition.Rect(cell.tile);
    cell.clients.reserve(static_cast<std::size_t>(params.clients_per_ap));
    for (int k = 0; k < params.clients_per_ap; ++k) {
      const double angle = client_rng.Uniform(0.0, 2.0 * 3.141592653589793);
      const double radius =
          params.cell_radius_m * std::sqrt(client_rng.Uniform01());
      Position p{cell.ap.x + radius * std::cos(angle),
                 cell.ap.y + radius * std::sin(angle)};
      cell.clients.push_back(ClampIntoRect(p, rect));
    }
  }

  // -- Scripted mics -------------------------------------------------------
  const int cells = static_cast<int>(layout.cells.size());
  for (int k = 0; k < params.num_mics; ++k) {
    const CellPlan& cell = layout.cells[static_cast<std::size_t>(k % cells)];
    MicActivation mic;
    mic.channel = cell.main.center;
    mic.on_time = (params.mic_start_s + k * params.mic_period_s) * kSecond;
    mic.off_time = mic.on_time + params.mic_duration_s * kSecond;
    layout.mics.push_back(mic);
    layout.mic_tile.push_back(cell.tile);
  }

  // -- Scripted roams ------------------------------------------------------
  for (int k = 0; k < params.num_roams; ++k) {
    RoamPlan roam;
    roam.from_cell = k % cells;
    roam.client_slot = k % params.clients_per_ap;
    const CellPlan& from = layout.cells[static_cast<std::size_t>(roam.from_cell)];
    // Nearest cell in a DIFFERENT tile (ties and absence fall back to the
    // nearest other cell, making the roam intra-tile but still
    // barrier-applied, so the code path stays uniform).
    int best = -1;
    double best_d = std::numeric_limits<double>::infinity();
    int best_any = -1;
    double best_any_d = std::numeric_limits<double>::infinity();
    for (int j = 0; j < cells; ++j) {
      if (j == roam.from_cell) continue;
      const CellPlan& to = layout.cells[static_cast<std::size_t>(j)];
      const double d = Distance(from.ap, to.ap);
      if (d < best_any_d) {
        best_any_d = d;
        best_any = j;
      }
      if (to.tile != from.tile && d < best_d) {
        best_d = d;
        best = j;
      }
    }
    roam.to_cell = best >= 0 ? best : best_any;
    if (roam.to_cell < 0) continue;  // Single-cell city: nothing to roam to.
    const CellPlan& to = layout.cells[static_cast<std::size_t>(roam.to_cell)];
    roam.arrive = ClampIntoRect(
        Position{to.ap.x + params.cell_radius_m / 3.0,
                 to.ap.y + params.cell_radius_m / 3.0},
        layout.partition.Rect(to.tile));
    roam.at = static_cast<SimTime>(
        (params.roam_start_s + k * params.roam_period_s) * kTicksPerSec);
    layout.roams.push_back(roam);
  }

  return layout;
}

}  // namespace whitefi::shard
