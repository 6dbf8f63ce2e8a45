#include "shard/engine.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace whitefi::shard {

ShardEngine::ShardEngine(const CityParams& city,
                         const ShardEngineConfig& config)
    : city_(city),
      config_(config),
      layout_(GenerateCity(city, config.medium)),
      prop_(config.medium.propagation) {
  if (config_.shards < 1) {
    throw std::invalid_argument("shard count must be >= 1");
  }
  horizon_ = config_.horizon > 0 ? config_.horizon : PhysicalLookaheadBound();
  // The most sensitive listener the medium models: energy below this floor
  // is inaudible everywhere, so it never needs to cross a seam.
  cs_floor_ = std::min(config_.medium.same_channel_cs_dbm,
                       config_.medium.energy_detect_cs_dbm);

  cell_refs_.resize(layout_.cells.size());
  const int num_tiles = layout_.partition.NumTiles();
  tiles_.reserve(static_cast<std::size_t>(num_tiles));
  std::vector<std::vector<int>> neighbors;
  for (int i = 0; i < num_tiles; ++i) {
    neighbors.push_back(layout_.partition.Neighbors(i));
  }
  for (int i = 0; i < num_tiles; ++i) {
    const std::vector<int>& mine = neighbors[static_cast<std::size_t>(i)];
    auto tile = std::make_unique<Tile>(i, 1 + mine.size());
    for (const int n : mine) {
      // Neighborhoods are symmetric: tile i is in n's list, and its
      // position there picks its sender slot in n's inbox.
      const std::vector<int>& back = neighbors[static_cast<std::size_t>(n)];
      const auto at = std::find(back.begin(), back.end(), i) - back.begin();
      tile->seams.push_back(Seam{n, layout_.partition.Rect(n),
                                 1 + static_cast<std::size_t>(at)});
    }
    tiles_.push_back(std::move(tile));
    BuildTile(*tiles_.back(), city_);
  }
  pool_ = std::make_unique<ThreadPool>(std::min(config_.shards, num_tiles));
}

ShardEngine::~ShardEngine() = default;

void ShardEngine::BuildTile(Tile& tile, const CityParams& city) {
  tile.metrics = std::make_unique<MetricsRegistry>();
  if (config_.trace) tile.trace = std::make_unique<EventTrace>();

  // Cells owned by this tile, in global cell order (determinism: node ids
  // within the tile depend only on this order and first_node_id).
  std::vector<int> cells_here;
  for (std::size_t c = 0; c < layout_.cells.size(); ++c) {
    if (layout_.cells[c].tile == tile.index) {
      cells_here.push_back(static_cast<int>(c));
    }
  }

  if (config_.audit) {
    // Auditors must exist before any device: construction fires
    // OnMacTiming/OnNodeTuned hooks every auditor needs to see.
    tile.fanout = std::make_unique<AuditFanout>();
    for (std::size_t k = 0; k < cells_here.size(); ++k) {
      tile.fanout->Add(config_.audit_config);
    }
  }

  WorldConfig wc;
  wc.seed = DeriveSeed(city.seed, "city.tile." + std::to_string(tile.index));
  wc.medium = config_.medium;
  // Disjoint id ranges keep node ids globally unique across tiles, so
  // ghost energy books under the sender's real id everywhere.
  wc.first_node_id = 1 + tile.index * 100000;
  wc.obs.metrics = tile.metrics.get();
  wc.obs.trace = tile.trace.get();
  wc.obs.auditor = tile.fanout.get();
  tile.world = std::make_unique<World>(wc);
  if (tile.fanout != nullptr) tile.fanout->AttachAll(*tile.world);

  for (std::size_t k = 0; k < cells_here.size(); ++k) {
    const int c = cells_here[k];
    const CellPlan& plan = layout_.cells[static_cast<std::size_t>(c)];
    CellRuntime rt;
    rt.cell = c;

    DeviceConfig ap_cfg;
    ap_cfg.position = plan.ap;
    ap_cfg.is_ap = true;
    ap_cfg.ssid = plan.ssid;
    ap_cfg.initial_channel = plan.main;
    ap_cfg.tx_power = city.tx_power_dbm;
    rt.ap = &tile.world->Create<ApNode>(ap_cfg, ApParams{}, plan.main,
                                        plan.backup);

    const ClientParams client_params;
    for (const Position& p : plan.clients) {
      DeviceConfig cc;
      cc.position = p;
      cc.ssid = plan.ssid;
      cc.initial_channel = plan.main;
      cc.tx_power = city.tx_power_dbm;
      rt.clients.push_back(&tile.world->Create<ClientNode>(
          cc, client_params, plan.main, plan.backup, rt.ap->NodeId()));
    }

    if (tile.fanout != nullptr) {
      tile.fanout->RegisterAp(k, rt.ap->NodeId());
      for (const ClientNode* client : rt.clients) {
        tile.fanout->RegisterClient(k, client->NodeId(), client_params);
      }
    }

    cell_refs_[static_cast<std::size_t>(c)] =
        CellRef{tile.index, static_cast<int>(tile.cells.size())};
    tile.cells.push_back(std::move(rt));
  }

  tile.world->StartAll();

  for (CellRuntime& rt : tile.cells) {
    for (ClientNode* client : rt.clients) {
      if (city.traffic == "cbr") {
        auto src = std::make_unique<CbrSource>(
            *client, rt.ap->NodeId(), city.payload_bytes, city.cbr_interval);
        src->Start();
        rt.cbr.push_back(std::move(src));
      } else {
        auto src = std::make_unique<SaturatedSource>(*client, rt.ap->NodeId(),
                                                     city.payload_bytes);
        src->Start();
        rt.saturated.push_back(std::move(src));
      }
    }
  }

  for (std::size_t m = 0; m < layout_.mics.size(); ++m) {
    // A mic belongs to one tile and is audible to every node there; the
    // tile edge (>= the cutoff) keeps it irrelevant beyond the seam.
    if (layout_.mic_tile[m] == tile.index) {
      tile.world->AddMic(layout_.mics[m]);
    }
  }

  // The boundary's observation seam: every completed LOCAL transmission
  // that still reaches a neighbor tile above the carrier-sense floor is
  // logged once and keyed for the barrier.  The tap runs on this tile's
  // round thread and writes only this tile's outbox and its own sender
  // slot in each neighbor's inbox (single writer each).
  Tile* const self = &tile;
  tile.world->medium().AddEnergyTap(
      [this, self](const Medium::EnergyTapInfo& info) {
        OnLocalEnergy(*self, info);
      });
}

void ShardEngine::OnLocalEnergy(Tile& tile,
                                const Medium::EnergyTapInfo& info) {
  const Position pos = info.tx.Location();
  bool logged = false;
  CrossShardEvent key;
  for (const Seam& seam : tile.seams) {
    if (!EnergyCrossesBoundary(prop_, info.power, pos, seam.rect,
                               cs_floor_)) {
      continue;
    }
    if (!logged) {
      logged = true;
      key = tile.outbox.Log(
          info.end, info.tx.NodeId(),
          RemoteEnergy{info.tx.IsAp(), pos, info.channel, info.frame,
                       info.power, info.end - info.start});
    }
    tiles_[static_cast<std::size_t>(seam.tile)]->inbox.Push(seam.slot, key);
  }
}

void ShardEngine::Run(double seconds) {
  const SimTime end =
      now_ + static_cast<SimTime>(std::llround(seconds * kTicksPerSec));
  const auto each_tile = [this](auto&& fn) {
    pool_->Run(tiles_.size(), [&](std::size_t i) { fn(*tiles_[i]); });
  };
  while (now_ < end) {
    const SimTime target = std::min(now_ + horizon_, end);
    each_tile([target](Tile& tile) {
      // The last barrier read this log; nothing reads it during a round.
      tile.outbox.ClearLog();
      tile.world->sim().Run(target);
    });
    now_ = target;
    ++rounds_;
    StageRoams(target);
    each_tile([this](Tile& tile) { ApplyInbox(tile); });
  }
}

void ShardEngine::StageRoams(SimTime target) {
  // A roam travels from its source tile's sequence stream, after every
  // energy event the tile sent this round, so the canonical key (time,
  // src_tile, node, seq) stays unique.  Its origin side only cancels a
  // CBR timer, which draws no simulator sequence number, so it is done
  // here rather than in canonical order at the origin tile.
  const auto tile_of = [this](int cell) -> Tile& {
    const CellRef& ref = cell_refs_[static_cast<std::size_t>(cell)];
    return *tiles_[static_cast<std::size_t>(ref.tile)];
  };
  while (roam_cursor_ < layout_.roams.size() &&
         layout_.roams[roam_cursor_].at <= target) {
    const auto index = static_cast<std::uint32_t>(roam_cursor_++);
    const RoamPlan& plan = layout_.roams[index];
    CellRuntime& from = RuntimeOf(plan.from_cell);
    const auto slot = static_cast<std::size_t>(plan.client_slot);
    if (slot < from.cbr.size()) from.cbr[slot]->SetActive(false);
    const CrossShardEvent key = tile_of(plan.from_cell).outbox.Roam(
        plan.at, from.clients[slot]->NodeId(), index);
    tile_of(plan.to_cell).inbox.Push(kRoamSlot, key);
  }
}

void ShardEngine::ApplyInbox(Tile& tile) {
  // Stamp log lines (an auditor violation at a ghost's start) with this
  // tile's clock, as during its round.
  const ScopedLogClock log_clock = tile.world->sim().BindLogClock();
  tile.inbox.Drain([&](const CrossShardEvent& event) {
    if (event.kind == CrossShardEvent::Kind::kRoam) {
      ApplyRoam(tile, event);
      return;
    }
    // Applied at the horizon tick (sim time == target); the ghost keeps
    // its full original duration.  The source's log is read-only until
    // its next round starts.
    const RemoteEnergy& energy =
        tiles_[static_cast<std::size_t>(event.src_tile)]->outbox.Logged(
            event.index);
    tile.world->medium().InjectForeignEnergy(
        event.node, energy.is_ap, energy.position, energy.channel,
        energy.frame, energy.tx_power, energy.duration);
    ++tile.ghosts;
  });
}

void ShardEngine::ApplyRoam(Tile& tile, const CrossShardEvent& event) {
  const RoamPlan& roam = layout_.roams[event.index];
  CellRuntime& to = RuntimeOf(roam.to_cell);
  const CellPlan& plan = layout_.cells[static_cast<std::size_t>(roam.to_cell)];

  DeviceConfig cfg;
  cfg.position = roam.arrive;
  cfg.ssid = plan.ssid;
  // The session lands on the destination AP's CURRENT channels — runtime
  // state, but deterministic at a barrier tick for every shard count.
  cfg.initial_channel = to.ap->main_channel();
  cfg.tx_power = city_.tx_power_dbm;
  const ClientParams client_params;
  ClientNode& client = tile.world->Create<ClientNode>(
      cfg, client_params, to.ap->main_channel(), to.ap->backup_channel(),
      to.ap->NodeId());
  client.Start();
  auto src = std::make_unique<CbrSource>(client, to.ap->NodeId(),
                                         city_.payload_bytes,
                                         city_.cbr_interval);
  src->Start();
  to.clients.push_back(&client);
  to.cbr.push_back(std::move(src));
  if (tile.fanout != nullptr) {
    const CellRef& ref = cell_refs_[static_cast<std::size_t>(roam.to_cell)];
    tile.fanout->RegisterClient(static_cast<std::size_t>(ref.index),
                                client.NodeId(), client_params);
  }
  ++tile.roams;
}

ShardEngine::CellRuntime& ShardEngine::RuntimeOf(int cell) {
  const CellRef& ref = cell_refs_[static_cast<std::size_t>(cell)];
  return tiles_[static_cast<std::size_t>(ref.tile)]
      ->cells[static_cast<std::size_t>(ref.index)];
}

const ShardEngine::CellRuntime& ShardEngine::RuntimeOf(int cell) const {
  const CellRef& ref = cell_refs_[static_cast<std::size_t>(cell)];
  return tiles_[static_cast<std::size_t>(ref.tile)]
      ->cells[static_cast<std::size_t>(ref.index)];
}

void ShardEngine::ResetAppBytes() {
  for (auto& tile : tiles_) tile->world->ResetAppBytes();
}

std::map<std::string, std::uint64_t> ShardEngine::MergedCounters() const {
  std::map<std::string, std::uint64_t> merged;
  for (const auto& tile : tiles_) {
    const MetricsSnapshot snapshot = tile->metrics->Snapshot();
    for (const auto& entry : snapshot.counters) {
      merged[entry.name] += entry.value;
    }
  }
  return merged;
}

std::uint64_t ShardEngine::messages_shipped() const {
  // Every shipped event is applied before Run returns, as one or the other.
  return ghosts_injected() + roams_applied();
}

std::uint64_t ShardEngine::ghosts_injected() const {
  std::uint64_t total = 0;
  for (const auto& tile : tiles_) total += tile->ghosts;
  return total;
}

std::uint64_t ShardEngine::roams_applied() const {
  std::uint64_t total = 0;
  for (const auto& tile : tiles_) total += tile->roams;
  return total;
}

std::uint64_t ShardEngine::EventsProcessed() const {
  std::uint64_t total = 0;
  for (const auto& tile : tiles_) total += tile->world->sim().NumProcessed();
  return total;
}

std::uint64_t ShardEngine::Transmissions() const {
  std::uint64_t total = 0;
  for (const auto& tile : tiles_) {
    total += tile->world->medium().NumTransmissions();
  }
  return total;
}

std::uint64_t ShardEngine::CellAppBytes(int cell) const {
  const CellRef& ref = cell_refs_[static_cast<std::size_t>(cell)];
  const CellPlan& plan = layout_.cells[static_cast<std::size_t>(cell)];
  return tiles_[static_cast<std::size_t>(ref.tile)]->world->AppBytesInSsid(
      plan.ssid);
}

std::uint64_t ShardEngine::AppBytesTotal() const {
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < layout_.cells.size(); ++c) {
    total += CellAppBytes(static_cast<int>(c));
  }
  return total;
}

std::uint64_t ShardEngine::TraceTotal() const {
  std::uint64_t total = 0;
  for (const auto& tile : tiles_) {
    if (tile->trace != nullptr) total += tile->trace->TotalSeen();
  }
  return total;
}

bool ShardEngine::audit_ok() const {
  for (const auto& tile : tiles_) {
    if (tile->fanout != nullptr && !tile->fanout->ok()) return false;
  }
  return true;
}

std::uint64_t ShardEngine::audit_violations() const {
  std::uint64_t total = 0;
  for (const auto& tile : tiles_) {
    if (tile->fanout != nullptr) total += tile->fanout->violation_count();
  }
  return total;
}

std::string ShardEngine::SummaryText() const {
  // Integers only, and never the shard count or wall time: this text is
  // the byte-identity target (`--shards N` must reproduce it exactly).
  std::ostringstream os;
  std::uint64_t clients = 0;
  for (const auto& tile : tiles_) {
    for (const CellRuntime& rt : tile->cells) clients += rt.clients.size();
  }
  os << "whitefi city-scale summary\n";
  os << "tiles=" << NumTiles() << " cells=" << layout_.cells.size()
     << " clients=" << clients << " horizon_us=" << horizon_
     << " rounds=" << rounds_ << "\n";
  os << "events=" << EventsProcessed() << " transmissions=" << Transmissions()
     << " messages=" << messages_shipped() << " ghosts=" << ghosts_injected()
     << " roams=" << roams_applied() << "\n";
  os << "app_bytes=" << AppBytesTotal() << " trace_events=" << TraceTotal()
     << "\n";
  if (!config_.audit) {
    os << "audit=off\n";
  } else if (audit_ok()) {
    os << "audit=ok\n";
  } else {
    os << "audit=violations count=" << audit_violations() << "\n";
  }
  for (std::size_t c = 0; c < layout_.cells.size(); ++c) {
    const CellRuntime& rt = RuntimeOf(static_cast<int>(c));
    os << "cell " << c << " ssid "
       << layout_.cells[c].ssid << " bytes " << CellAppBytes(static_cast<int>(c))
       << " switches " << rt.ap->num_switches() << " clients "
       << rt.clients.size() << "\n";
  }
  for (const auto& [name, value] : MergedCounters()) {
    os << "counter " << name << " " << value << "\n";
  }
  return os.str();
}

}  // namespace whitefi::shard
