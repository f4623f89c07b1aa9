#include "core/cluster.h"

#include <unordered_set>

namespace pahoehoe::core {

const char* to_string(VersionStatus status) {
  switch (status) {
    case VersionStatus::kAmr:
      return "AMR";
    case VersionStatus::kDurableNotAmr:
      return "durable-not-AMR";
    case VersionStatus::kNonDurable:
      return "non-durable";
  }
  return "?";
}

Cluster::Cluster(sim::Simulator& sim, net::Network& net,
                 ClusterTopology topology, ConvergenceOptions conv_options,
                 ProxyOptions proxy_options)
    : sim_(sim), net_(net), topology_(topology) {
  PAHOEHOE_CHECK_MSG(topology_.valid(), "invalid cluster topology");

  auto view = std::make_shared<ClusterView>();
  view->num_dcs = topology_.num_dcs;
  view->disks_per_fs = topology_.disks_per_fs;
  view->kls_by_dc.resize(static_cast<size_t>(topology_.num_dcs));
  view->fs_by_dc.resize(static_cast<size_t>(topology_.num_dcs));

  // Ids are assigned proxies → KLSs → FSs, data center 0 first; the FS id
  // order doubles as the §4.2 backoff tiebreak. Allocation starts at 101 so
  // tests can register out-of-cluster probe nodes with ids on either side.
  uint32_t next_id = 101;
  std::vector<std::pair<NodeId, DataCenterId>> proxy_ids, kls_ids, fs_ids;
  for (int p = 0; p < topology_.num_proxies; ++p) {
    const DataCenterId dc{static_cast<uint8_t>(p % topology_.num_dcs)};
    proxy_ids.emplace_back(NodeId{next_id++}, dc);
  }
  for (int d = 0; d < topology_.num_dcs; ++d) {
    const DataCenterId dc{static_cast<uint8_t>(d)};
    for (int i = 0; i < topology_.kls_per_dc; ++i) {
      const NodeId id{next_id++};
      kls_ids.emplace_back(id, dc);
      view->all_kls.push_back(id);
      view->kls_by_dc[static_cast<size_t>(d)].push_back(id);
    }
  }
  for (int d = 0; d < topology_.num_dcs; ++d) {
    const DataCenterId dc{static_cast<uint8_t>(d)};
    for (int i = 0; i < topology_.fs_per_dc; ++i) {
      const NodeId id{next_id++};
      fs_ids.emplace_back(id, dc);
      view->fs_by_dc[static_cast<size_t>(d)].push_back(id);
    }
  }
  for (const auto& [id, dc] : proxy_ids) view->dc_of_node[id] = dc;
  for (const auto& [id, dc] : kls_ids) view->dc_of_node[id] = dc;
  for (const auto& [id, dc] : fs_ids) view->dc_of_node[id] = dc;
  view_ = std::move(view);

  net_.set_dc_resolver(
      [v = view_](NodeId id) { return v->dc_of(id); });

  for (const auto& [id, dc] : proxy_ids) {
    proxies_.push_back(std::make_unique<Proxy>(sim_, net_, view_, id, dc,
                                               conv_options, proxy_options));
  }
  for (const auto& [id, dc] : kls_ids) {
    klss_.push_back(
        std::make_unique<KeyLookupServer>(sim_, net_, view_, id, dc));
  }
  for (const auto& [id, dc] : fs_ids) {
    fss_.push_back(std::make_unique<FragmentServer>(sim_, net_, view_, id, dc,
                                                    conv_options));
  }
}

Proxy& Cluster::proxy(int index) {
  PAHOEHOE_CHECK(index >= 0 && index < num_proxies());
  return *proxies_[static_cast<size_t>(index)];
}

KeyLookupServer& Cluster::kls(int global_index) {
  PAHOEHOE_CHECK(global_index >= 0 && global_index < num_kls());
  return *klss_[static_cast<size_t>(global_index)];
}

KeyLookupServer& Cluster::kls(int dc, int index_in_dc) {
  return kls(dc * topology_.kls_per_dc + index_in_dc);
}

FragmentServer& Cluster::fs(int global_index) {
  PAHOEHOE_CHECK(global_index >= 0 && global_index < num_fs());
  return *fss_[static_cast<size_t>(global_index)];
}

FragmentServer& Cluster::fs(int dc, int index_in_dc) {
  return fs(dc * topology_.fs_per_dc + index_in_dc);
}

VersionStatus Cluster::classify(const ObjectVersionId& ov) const {
  // Union every server's view of the metadata.
  Metadata merged;
  for (const auto& kls : klss_) {
    if (const Metadata* m = kls->meta_store().find(ov); m != nullptr) {
      if (merged.locs.empty()) merged = *m;
      else merged.merge_locs(*m);
    }
  }
  for (const auto& fs : fss_) {
    const storage::FragStore::Entry* entry = fs->frag_store().find(ov);
    if (entry != nullptr) {
      if (merged.locs.empty()) merged = entry->meta;
      else merged.merge_locs(entry->meta);
    }
  }

  // Durability: distinct fragment indices with an intact copy anywhere.
  std::unordered_set<int> stored;
  for (const auto& fs : fss_) {
    const storage::FragStore::Entry* entry = fs->frag_store().find(ov);
    if (entry == nullptr) continue;
    for (const auto& [index, frag] : entry->fragments) {
      if (frag.intact()) stored.insert(index);
    }
  }
  const int k = merged.policy.k;
  const bool durable =
      !merged.locs.empty() && static_cast<int>(stored.size()) >= k;
  if (!durable) return VersionStatus::kNonDurable;

  // AMR: every KLS stores the timestamp and complete metadata, and every
  // assigned FS holds its sibling fragment intact.
  if (!merged.complete()) return VersionStatus::kDurableNotAmr;
  for (const auto& kls : klss_) {
    if (!kls->timestamp_store().contains(ov.key, ov.ts)) {
      return VersionStatus::kDurableNotAmr;
    }
    const Metadata* m = kls->meta_store().find(ov);
    if (m == nullptr || !m->complete()) return VersionStatus::kDurableNotAmr;
  }
  for (size_t slot = 0; slot < merged.locs.size(); ++slot) {
    const Location& loc = *merged.locs[slot];
    const FragmentServer* owner = nullptr;
    for (const auto& fs : fss_) {
      if (fs->id() == loc.fs) {
        owner = fs.get();
        break;
      }
    }
    if (owner == nullptr) return VersionStatus::kDurableNotAmr;
    if (owner->frag_store().fragment_if_intact(ov, static_cast<int>(slot)) ==
        nullptr) {
      return VersionStatus::kDurableNotAmr;
    }
  }
  return VersionStatus::kAmr;
}

Sha256::Digest Cluster::state_digest() const {
  // Canonical serialization of every server's persistent state: servers in
  // id order, versions in (key, timestamp) order, fragment slots ascending.
  wire::Writer w;
  for (const auto& kls : klss_) {
    w.u32(kls->id().value);
    const auto entries = kls->meta_store().sorted();
    w.u32(static_cast<uint32_t>(entries.size()));
    for (const auto* item : entries) {
      const auto& [ov, meta] = *item;
      wire::encode(w, ov);
      w.boolean(kls->timestamp_store().contains(ov.key, ov.ts));
      wire::encode(w, meta);
    }
  }
  for (const auto& fs : fss_) {
    w.u32(fs->id().value);
    const auto entries = fs->frag_store().sorted();
    w.u32(static_cast<uint32_t>(entries.size()));
    for (const auto* item : entries) {
      const auto& [ov, entry] = *item;
      wire::encode(w, ov);
      w.u32(static_cast<uint32_t>(entry.fragments.size()));
      for (const auto& [slot, frag] : entry.fragments) {
        w.u32(static_cast<uint32_t>(slot));
        w.u8(frag.disk);
        // Hash of the fragment content rather than the content itself
        // keeps the digest input small for large archives; the buffer's
        // memo supplies it.
        for (uint8_t b : frag.data.digest()) w.u8(b);
      }
    }
  }
  return Sha256::hash(w.data());
}

bool Cluster::converged_quiescent() const {
  return total_pending_versions() == 0;
}

size_t Cluster::total_pending_versions() const {
  size_t total = 0;
  for (const auto& fs : fss_) total += fs->pending_versions();
  return total;
}

}  // namespace pahoehoe::core
