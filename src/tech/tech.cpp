#include "tech/tech.h"

#include <algorithm>
#include <mutex>

#include "tech/rulecache.h"
#include "tech/techfile.h"
#include "util/hash.h"

namespace amg::tech {

/// One lazily-built cache per rule-table state.  A mutation replaces the
/// whole slot (never the cache inside a published slot), so readers that
/// fetched rules() before the mutation keep a consistent snapshot.  The
/// content fingerprint shares the slot: it is invalidated by exactly the
/// same mutations.
struct Technology::CacheSlot {
  std::once_flag once;
  std::unique_ptr<const RuleCache> cache;
  std::once_flag fpOnce;
  std::uint64_t fingerprint = 0;
};

Technology::Technology(std::string name)
    : name_(std::move(name)), cacheSlot_(std::make_shared<CacheSlot>()) {}

const RuleCache& Technology::rules() const {
  CacheSlot& slot = *cacheSlot_;
  std::call_once(slot.once,
                 [&] { slot.cache = std::make_unique<const RuleCache>(*this); });
  return *slot.cache;
}

std::uint64_t Technology::contentFingerprint() const {
  CacheSlot& slot = *cacheSlot_;
  std::call_once(slot.fpOnce,
                 [&] { slot.fingerprint = util::fnv1a(saveTechFile(*this)); });
  return slot.fingerprint;
}

void Technology::invalidateRules() { cacheSlot_ = std::make_shared<CacheSlot>(); }

LayerId Technology::addLayer(LayerInfo info) {
  if (byName_.contains(info.name))
    throw DesignRuleError("technology '" + name_ + "': duplicate layer '" + info.name + "'");
  const LayerId id = static_cast<LayerId>(layers_.size());
  byName_.emplace(info.name, id);
  layers_.push_back(std::move(info));
  invalidateRules();
  return id;
}

void Technology::setMinWidth(LayerId l, Coord w) {
  minWidth_[l] = w;
  invalidateRules();
}

void Technology::setMinSpacing(LayerId a, LayerId b, Coord s) {
  spacing_[pairKey(a, b)] = s;
  invalidateRules();
}

void Technology::setEnclosure(LayerId outer, LayerId inner, Coord e) {
  enclosure_[orderedKey(outer, inner)] = e;
  invalidateRules();
}

void Technology::setExtension(LayerId a, LayerId b, Coord e) {
  extension_[orderedKey(a, b)] = e;
  invalidateRules();
}

void Technology::setCutSize(LayerId cut, Coord w, Coord h) {
  cutSize_[cut] = {w, h};
  invalidateRules();
}

void Technology::addCutConnection(LayerId cut, LayerId a, LayerId b) {
  cutConns_.push_back(CutConn{cut, a, b});
  invalidateRules();
}

LayerId Technology::layer(std::string_view name) const {
  if (auto l = findLayer(name)) return *l;
  throw DesignRuleError("technology '" + name_ + "': unknown layer '" +
                        std::string(name) + "'");
}

std::optional<LayerId> Technology::findLayer(std::string_view name) const {
  auto it = byName_.find(std::string(name));
  if (it == byName_.end()) return std::nullopt;
  return it->second;
}

Coord Technology::minWidth(LayerId l) const {
  if (auto w = findMinWidth(l)) return *w;
  throw DesignRuleError("technology '" + name_ + "': no minimum width for layer '" +
                        info(l).name + "'");
}

std::optional<Coord> Technology::findMinWidth(LayerId l) const {
  auto it = minWidth_.find(l);
  if (it != minWidth_.end()) return it->second;
  if (auto cs = cutSize_.find(l); cs != cutSize_.end())
    return std::min(cs->second.first, cs->second.second);
  return std::nullopt;
}

std::optional<Coord> Technology::minSpacing(LayerId a, LayerId b) const {
  auto it = spacing_.find(pairKey(a, b));
  if (it == spacing_.end()) return std::nullopt;
  return it->second;
}

std::optional<Coord> Technology::enclosure(LayerId outer, LayerId inner) const {
  auto it = enclosure_.find(orderedKey(outer, inner));
  if (it == enclosure_.end()) return std::nullopt;
  return it->second;
}

std::optional<Coord> Technology::extension(LayerId a, LayerId b) const {
  auto it = extension_.find(orderedKey(a, b));
  if (it == extension_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::pair<Coord, Coord>> Technology::findCutSize(LayerId cut) const {
  auto it = cutSize_.find(cut);
  if (it == cutSize_.end()) return std::nullopt;
  return it->second;
}

std::pair<Coord, Coord> Technology::cutSize(LayerId cut) const {
  if (auto cs = findCutSize(cut)) return *cs;
  throw DesignRuleError("technology '" + name_ + "': layer '" + info(cut).name +
                        "' has no cut size");
}

bool Technology::cutConnects(LayerId cut, LayerId a, LayerId b) const {
  return std::any_of(cutConns_.begin(), cutConns_.end(), [&](const CutConn& c) {
    return c.cut == cut && ((c.a == a && c.b == b) || (c.a == b && c.b == a));
  });
}

std::vector<std::pair<LayerId, LayerId>> Technology::cutConnections(LayerId cut) const {
  std::vector<std::pair<LayerId, LayerId>> out;
  for (const CutConn& c : cutConns_)
    if (c.cut == cut) out.emplace_back(c.a, c.b);
  return out;
}

std::vector<LayerId> Technology::cutsBetween(LayerId a, LayerId b) const {
  std::vector<LayerId> out;
  for (const CutConn& c : cutConns_) {
    if ((c.a == a && c.b == b) || (c.a == b && c.b == a)) {
      if (std::find(out.begin(), out.end(), c.cut) == out.end()) out.push_back(c.cut);
    }
  }
  return out;
}

std::vector<LayerId> Technology::activeLayers() const {
  std::vector<LayerId> out;
  for (LayerId l = 0; l < layers_.size(); ++l)
    if (layers_[l].kind == LayerKind::Diffusion) out.push_back(l);
  return out;
}

std::vector<LayerId> Technology::conductingLayers() const {
  std::vector<LayerId> out;
  for (LayerId l = 0; l < layers_.size(); ++l)
    if (layers_[l].conducting) out.push_back(l);
  return out;
}

}  // namespace amg::tech
