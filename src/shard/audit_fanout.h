// AuditFanout — one auditor per AP cell behind a single AuditHooks seam.
//
// The Observability bundle carries exactly one AuditHooks pointer, and an
// InvariantAuditor audits exactly one AP (its convergence reference).  A
// city tile hosts many AP cells, so the fanout multiplexes them over one
// world:
//  * the world-level state — hook clock, per-channel busy-time unions and
//    each node's tune — lives in one AuditBook that every cell auditor
//    shares, and each hook updates it once;
//  * a per-node hook goes only to the auditor of the cell that owns the
//    node (RegisterAp / RegisterClient), one table lookup away; a ghost's
//    node is owned by no cell here, so a ghost costs one union update and
//    one missed lookup;
//  * OnMacTiming and world-level violations (a hook clock running
//    backwards) reach every cell auditor, and each cell keeps its own
//    sweep, so every cell records what a lone auditor of the world would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "audit/audit.h"

namespace whitefi::shard {

/// Routes AuditHooks to one InvariantAuditor per AP cell.
class AuditFanout : public AuditHooks {
 public:
  AuditFanout() = default;
  AuditFanout(const AuditFanout&) = delete;
  AuditFanout& operator=(const AuditFanout&) = delete;

  /// Adds (and owns) a fresh per-cell auditor on the shared book; the
  /// n-th call creates cell n.
  InvariantAuditor& Add(const AuditConfig& config);

  /// Attaches every auditor to `world` (after World construction).
  void AttachAll(World& world);

  /// Registers `node` as cell `cell`'s AP: that cell's auditor audits it
  /// and receives its per-node hooks.
  void RegisterAp(std::size_t cell, int node);

  /// Registers `node` as a client of cell `cell` (roamed-in clients too).
  void RegisterClient(std::size_t cell, int node, const ClientParams& params);

  const std::vector<std::unique_ptr<InvariantAuditor>>& auditors() const {
    return auditors_;
  }

  /// True iff every per-cell auditor is clean.
  bool ok() const;

  /// Total violations across cells.
  std::uint64_t violation_count() const;

  // -- AuditHooks ----------------------------------------------------------
  void OnTransmitStart(SimTime now, const RadioPort& tx,
                       const Channel& channel, SimTime duration) override;
  void OnMacTiming(const RadioPort& radio, const PhyTiming& timing) override;
  void OnNodeTuned(SimTime now, int node, const Channel& channel) override;
  void OnClientDisconnected(SimTime now, int node) override;
  void OnClientReconnected(SimTime now, int node) override;
  void OnChirp(SimTime now, int node) override;

 private:
  /// Moves the book's clock to `now`; if that runs it backwards, every
  /// cell records the violation.
  void Tick(SimTime now, const char* where);
  /// Marks `node` as audited by cell `cell`.
  void Own(std::size_t cell, int node);
  /// The auditor of the cell that owns `node`, or null.
  InvariantAuditor* OwnerOf(int node) const;

  /// Declared first: the auditors point at it.
  AuditBook book_;
  std::vector<std::unique_ptr<InvariantAuditor>> auditors_;
  /// Owner by node id: owners_[id - first_owned_].  A world's node ids
  /// are dense, so the table is as long as the world has nodes.
  std::vector<InvariantAuditor*> owners_;
  int first_owned_ = 0;
};

}  // namespace whitefi::shard
