#include "shard/audit_fanout.h"

namespace whitefi::shard {

InvariantAuditor& AuditFanout::Add(const AuditConfig& config) {
  auditors_.push_back(std::make_unique<InvariantAuditor>(config, &book_));
  return *auditors_.back();
}

void AuditFanout::AttachAll(World& world) {
  for (auto& auditor : auditors_) auditor->Attach(world);
}

void AuditFanout::RegisterAp(std::size_t cell, int node) {
  Own(cell, node);
  auditors_[cell]->RegisterAp(node);
}

void AuditFanout::RegisterClient(std::size_t cell, int node,
                                 const ClientParams& params) {
  Own(cell, node);
  auditors_[cell]->RegisterClient(node, params);
}

void AuditFanout::Own(std::size_t cell, int node) {
  if (owners_.empty()) first_owned_ = node;
  if (node < first_owned_) {
    owners_.insert(owners_.begin(),
                   static_cast<std::size_t>(first_owned_ - node), nullptr);
    first_owned_ = node;
  }
  const auto index = static_cast<std::size_t>(node - first_owned_);
  if (index >= owners_.size()) owners_.resize(index + 1, nullptr);
  owners_[index] = auditors_[cell].get();
}

InvariantAuditor* AuditFanout::OwnerOf(int node) const {
  if (node < first_owned_) return nullptr;
  const auto index = static_cast<std::size_t>(node - first_owned_);
  return index < owners_.size() ? owners_[index] : nullptr;
}

bool AuditFanout::ok() const {
  for (const auto& auditor : auditors_) {
    if (!auditor->ok()) return false;
  }
  return true;
}

std::uint64_t AuditFanout::violation_count() const {
  std::uint64_t total = 0;
  for (const auto& auditor : auditors_) total += auditor->violation_count();
  return total;
}

void AuditFanout::Tick(SimTime now, const char* where) {
  const SimTime last = book_.clock();
  if (book_.Advance(now)) return;
  for (auto& a : auditors_) a->ReportClockBackwards(now, last, where);
}

void AuditFanout::OnTransmitStart(SimTime now, const RadioPort& tx,
                                  const Channel& channel, SimTime duration) {
  Tick(now, "transmit");
  book_.AddTransmission(now, channel, duration);
  const int node = tx.NodeId();
  if (InvariantAuditor* owner = OwnerOf(node)) {
    owner->CheckTransmission(now, node, channel);
  }
}

void AuditFanout::OnMacTiming(const RadioPort& radio, const PhyTiming& timing) {
  for (auto& a : auditors_) a->OnMacTiming(radio, timing);
}

void AuditFanout::OnNodeTuned(SimTime now, int node, const Channel& channel) {
  Tick(now, "tune");
  book_.SetTune(now, node, channel);
}

void AuditFanout::OnClientDisconnected(SimTime now, int node) {
  Tick(now, "disconnect");
  if (InvariantAuditor* owner = OwnerOf(node)) {
    owner->NoteDisconnected(now, node);
  }
}

void AuditFanout::OnClientReconnected(SimTime now, int node) {
  Tick(now, "reconnect");
  if (InvariantAuditor* owner = OwnerOf(node)) owner->NoteReconnected(node);
}

void AuditFanout::OnChirp(SimTime now, int node) {
  Tick(now, "chirp");
  if (InvariantAuditor* owner = OwnerOf(node)) owner->NoteChirp(now, node);
}

}  // namespace whitefi::shard
