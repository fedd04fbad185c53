#include "net/conn_table.hpp"

namespace nestv::net {

namespace {

/// Index tag bit that passes every key: set on the buckets an erase
/// leaves behind for its slot, whose next owner carries another summary.
constexpr std::uint8_t kWildcard = 0x80;

/// 4-bit digest of a tuple's hash; a slot's summary tag carries the
/// digest of its orig tuple in bits 0-3 and three bits of its reply
/// tuple's in bits 4-6.
[[nodiscard]] std::uint8_t digest(std::size_t hash) {
  return slab::hash_tag(hash) >> 4;
}

/// Index tag filter for a key with digest `d`.
struct Accepts {
  std::uint8_t d;
  bool operator()(std::uint8_t tag) const {
    return (tag & kWildcard) != 0 || (tag & 0xf) == d ||
           ((tag >> 4) & 7) == (d & 7);
  }
};

}  // namespace

std::size_t ConnKeyHash::operator()(const ConnKey& k) const noexcept {
  std::uint64_t h = k.src_ip.value();
  h = h * 0x9e3779b97f4a7c15ULL + k.dst_ip.value();
  h = h * 0x9e3779b97f4a7c15ULL +
      ((std::uint64_t{k.src_port} << 24) | (std::uint64_t{k.dst_port} << 8) |
       static_cast<std::uint64_t>(k.proto));
  return static_cast<std::size_t>(h ^ (h >> 29));
}

std::uint32_t ConnTable::slot_of(std::uint64_t id) const {
  const std::uint32_t s = static_cast<std::uint32_t>(id & 0xffffffffU) - 1;
  if (s >= slots_.used()) return slab::kNil;
  const Slot& sl = slots_[s];
  if (sl.next_free != kOccupied ||
      sl.gen != static_cast<std::uint32_t>(id >> 32)) {
    return slab::kNil;
  }
  return s;
}

bool ConnTable::slot_has_tuple(std::uint32_t s, const ConnKey& key) const {
  const Slot& sl = slots_[s];
  if (sl.next_free != kOccupied) return false;
  return sl.entry.orig == key || (sl.entry.confirmed && sl.entry.reply == key);
}

std::uint8_t ConnTable::summary(const ConnEntry& e) {
  const std::uint8_t o = digest(ConnKeyHash{}(e.orig));
  const std::uint8_t r = e.confirmed ? digest(ConnKeyHash{}(e.reply)) : o;
  return static_cast<std::uint8_t>(o | ((r & 7) << 4));
}

ConnTable::Ref ConnTable::find(const ConnKey& key) {
  const std::size_t hash = ConnKeyHash{}(key);
  const std::uint32_t s = index_.find(
      hash, Accepts{digest(hash)},
      [this, &key](std::uint32_t b) { return slot_has_tuple(b, key); });
  if (s == slab::kNil) return {};
  Slot& sl = slots_[s];
  return Ref{id_of(s, sl.gen), &sl.entry};
}

const ConnEntry* ConnTable::find(const ConnKey& key) const {
  const Ref r = const_cast<ConnTable*>(this)->find(key);
  return r.entry;
}

ConnTable::Ref ConnTable::find_id(std::uint64_t id) {
  const std::uint32_t s = slot_of(id);
  if (s == slab::kNil) return {};
  return Ref{id, &slots_[s].entry};
}

bool ConnTable::alive(std::uint64_t id) const {
  return slot_of(id) != slab::kNil;
}

ConnTable::Ref ConnTable::create(const ConnEntry& entry) {
  const std::uint32_t s = slots_.alloc();
  Slot& sl = slots_[s];
  sl.entry = entry;
  sl.next_free = kOccupied;
  ++live_;
  index_insert(entry.orig, summary(entry), s);
  port_add(entry.orig);
  return Ref{id_of(s, sl.gen), &sl.entry};
}

void ConnTable::register_reply(std::uint64_t id, const ConnKey& reply) {
  const std::uint32_t s = slot_of(id);
  if (s == slab::kNil) return;
  // Confirmation changed the slot's summary: re-tag the buckets it has.
  const std::uint8_t tag = summary(slots_[s].entry);
  const std::size_t hash = ConnKeyHash{}(reply);
  index_.retag(ConnKeyHash{}(slots_[s].entry.orig), s, tag);
  index_.retag(hash, s, tag);
  // Already bound (reply == orig, or a re-confirmation): keep one binding,
  // re-pointing it at this connection like the map's operator[] did.
  if (index_.rebind(
          hash, Accepts{digest(hash)},
          [this, &reply](std::uint32_t b) { return slot_has_tuple(b, reply); },
          tag, s)) {
    return;
  }
  index_insert(reply, tag, s);
  port_add(reply);
}

void ConnTable::erase(std::uint64_t id) {
  const std::uint32_t s = slot_of(id);
  if (s == slab::kNil) return;
  Slot& sl = slots_[s];
  // When a slot's two bindings share a probe window the bucket erased for
  // one tuple may be the other's — harmless, because both go back to back.
  // Any further bucket of the slot (a rebuild duplicate) stays bound; it
  // turns wildcard so that it keeps passing for the slot's next owner.
  each_tuple(sl.entry, [this, s](const ConnKey& k) {
    const std::size_t hash = ConnKeyHash{}(k);
    index_.erase(hash, s);
    index_.retag(hash, s, kWildcard);
    port_remove(k);
  });
  ++sl.gen;
  slots_.release(s);
  --live_;
}

ConnTable::Ref ConnTable::at_slot(std::size_t i) {
  if (i >= slots_.used()) return {};
  Slot& sl = slots_[static_cast<std::uint32_t>(i)];
  if (sl.next_free != kOccupied) return {};
  return Ref{id_of(static_cast<std::uint32_t>(i), sl.gen), &sl.entry};
}

void ConnTable::index_insert(const ConnKey& key, std::uint8_t tag,
                             std::uint32_t s) {
  if (index_.full()) {
    // Slot `s` is already live, so the rebuild binds its tuples too and
    // the insert below binds `key` a second time.  Lookups verify the
    // slot's tuples, so the extra binding only shifts rebuild timing —
    // which the gated state_bytes() figures pin.
    std::size_t tuples = 0;
    each_binding([&tuples](const ConnKey&, std::uint32_t) { ++tuples; });
    index_.rebuild(tuples, [this](const auto& place) {
      each_binding([this, &place](const ConnKey& k, std::uint32_t b) {
        place(ConnKeyHash{}(k), summary(slots_[b].entry), b);
      });
    });
  }
  index_.insert(ConnKeyHash{}(key), tag, s);
}

bool ConnTable::port_in_use(L4Proto proto, Ipv4Address ip,
                            std::uint16_t port) {
  if (!ports_built_) {
    // Mirror every registered tuple; from here on port_add / port_remove
    // keep the index identical to an eagerly maintained one.
    ports_built_ = true;
    each_binding([this](const ConnKey& k, std::uint32_t) { port_add(k); });
  }
  if (port_keys_.empty()) return false;
  const std::uint64_t key = port_key(proto, ip, port);
  const std::size_t n = port_keys_.size();
  std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  for (std::size_t i = h % n;; i = i + 1 == n ? 0 : i + 1) {
    const std::uint64_t k = port_keys_[i];
    if (k == 0) return false;
    if (k == key) return port_counts_[i] > 0;
  }
}

void ConnTable::port_add(const ConnKey& key) {
  if (!ports_built_) return;
  if (slab::wants_grow(ports_live_, ports_dead_, port_keys_.size())) {
    port_grow();
  }
  const std::uint64_t pk = port_key(key.proto, key.dst_ip, key.dst_port);
  const std::size_t n = port_keys_.size();
  std::uint64_t h = pk * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  std::size_t tomb = ~std::size_t{0};
  for (std::size_t i = h % n;; i = i + 1 == n ? 0 : i + 1) {
    const std::uint64_t k = port_keys_[i];
    if (k == pk) {
      ++port_counts_[i];
      return;
    }
    if (k == ~0ULL && tomb == ~std::size_t{0}) tomb = i;
    if (k == 0) {
      const std::size_t dst = tomb != ~std::size_t{0} ? tomb : i;
      if (tomb != ~std::size_t{0}) --ports_dead_;
      port_keys_[dst] = pk;
      port_counts_[dst] = 1;
      ++ports_live_;
      return;
    }
  }
}

void ConnTable::port_remove(const ConnKey& key) {
  if (!ports_built_ || port_keys_.empty()) return;
  const std::uint64_t pk = port_key(key.proto, key.dst_ip, key.dst_port);
  const std::size_t n = port_keys_.size();
  std::uint64_t h = pk * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  for (std::size_t i = h % n;; i = i + 1 == n ? 0 : i + 1) {
    const std::uint64_t k = port_keys_[i];
    if (k == 0) return;
    if (k == pk) {
      if (port_counts_[i] > 0 && --port_counts_[i] == 0) {
        port_keys_[i] = ~0ULL;
        --ports_live_;
        ++ports_dead_;
      }
      return;
    }
  }
}

void ConnTable::port_grow() {
  std::vector<std::uint64_t> old_keys = std::move(port_keys_);
  std::vector<std::uint32_t> old_counts = std::move(port_counts_);
  std::size_t live = 0;
  for (const std::uint64_t k : old_keys) live += (k != 0 && k != ~0ULL);
  const std::size_t n = slab::sized_for(live);
  port_keys_.assign(n, 0);
  port_counts_.assign(n, 0);
  port_keys_.shrink_to_fit();
  port_counts_.shrink_to_fit();
  ports_live_ = 0;
  ports_dead_ = 0;
  for (std::size_t j = 0; j < old_keys.size(); ++j) {
    const std::uint64_t k = old_keys[j];
    if (k == 0 || k == ~0ULL) continue;
    std::uint64_t h = k * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    for (std::size_t i = h % n;; i = i + 1 == n ? 0 : i + 1) {
      if (port_keys_[i] == 0) {
        port_keys_[i] = k;
        port_counts_[i] = old_counts[j];
        ++ports_live_;
        break;
      }
    }
  }
}

std::size_t ConnTable::state_bytes() const {
  return slots_.bytes() + index_.bytes() +
         port_keys_.capacity() * sizeof(std::uint64_t) +
         port_counts_.capacity() * sizeof(std::uint32_t);
}

}  // namespace nestv::net
