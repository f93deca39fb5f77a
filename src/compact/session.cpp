#include "compact/session.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "io/layout.h"
#include "obs/obs.h"
#include "util/hash.h"
#include "util/version.h"

namespace amg::compact {
namespace {

/// Keyed into every chain seed so stale disk tiers can never resurrect;
/// bump rules live with the constant (util/version.h).
constexpr std::uint64_t kPrefixFormatVersion = util::kPrefixFormatVersion;

std::string_view view(const std::vector<std::uint8_t>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// One live session per module under construction.
struct Sess {
  std::uint64_t stamp = 0;  ///< module stamp the session was valid at
  /// Persistent compaction session (incremental spatial index); only kept
  /// while the module's bytes are current.
  std::unique_ptr<Compactor> compactor;
  // -- prefix store, when one is attached --------------------------------
  PrefixCache* cache = nullptr;
  std::uint64_t chain = 0;  ///< hash of the module's *logical* state
  /// Parked snapshot of the logical state (deferred restore); non-null
  /// means the module's bytes lag the chain.
  PrefixCache::Blob pending;
};

std::unordered_map<const db::Module*, Sess>& tlsSessions() {
  thread_local std::unordered_map<const db::Module*, Sess> sessions;
  return sessions;
}

/// Deserialize the parked snapshot into `m` and re-validate the session.
void materialize(Sess& s, db::Module& m) {
  obs::Span span("gen.prefix.materialize");
  span.arg("bytes", static_cast<std::uint64_t>(s.pending->size()));
  m = io::deserializeSessionState(*s.pending, m.technology());
  s.pending.reset();
  s.compactor.reset();  // the index described the replaced store
  s.stamp = m.stamp();
  s.cache->noteMaterialization();
}

/// Fingerprint of one (object, direction, options) step.  The engine is
/// excluded on purpose: indexed and brute-force produce byte-identical
/// layouts (enforced by tests), so both drive the same entries.
std::uint64_t stepFingerprint(const db::Module& target, const db::Module& obj,
                              Dir dir, const Options& options) {
  std::uint64_t h = util::fnv1a(view(io::serializeSessionState(obj)));
  h = util::fnv1a(static_cast<std::uint64_t>(dir), h);
  std::vector<std::string> ignored;
  ignored.reserve(options.ignoreLayers.size());
  for (const tech::LayerId l : options.ignoreLayers)
    ignored.push_back(target.technology().info(l).name);
  std::sort(ignored.begin(), ignored.end());
  ignored.erase(std::unique(ignored.begin(), ignored.end()), ignored.end());
  h = util::fnv1a(static_cast<std::uint64_t>(ignored.size()), h);
  for (const std::string& name : ignored) h = util::fnv1a(name, h);
  h = util::fnv1a(static_cast<std::uint64_t>(
                      (options.enableVariableEdges ? 1u : 0u) |
                      (options.autoConnect ? 2u : 0u)),
                  h);
  h = util::fnv1a(static_cast<std::uint64_t>(options.extraGap), h);
  return h;
}

}  // namespace

bool sessionStep(db::Module& target, const db::Module& obj, Dir dir,
                 const Options& options, PrefixCache* cache) {
  auto& sessions = tlsSessions();
  auto it = sessions.find(&target);
  if (it != sessions.end() &&
      (it->second.cache != cache || it->second.stamp != target.stamp())) {
    // Out-of-band mutation (DSL primitive, VARIANT rollback, reused stack
    // slot) or a different cache instance: the session no longer
    // describes this module.  Any parked snapshot belongs to the dead
    // history.
    sessions.erase(it);
    it = sessions.end();
  }
  if (it == sessions.end()) {
    Sess s;
    s.stamp = target.stamp();
    if (cache) {
      s.cache = cache;
      const std::uint64_t seed =
          util::fnv1a(target.technology().contentFingerprint(),
                      util::fnv1a(kPrefixFormatVersion, util::kFnvBasis));
      s.chain = util::fnv1a(view(io::serializeSessionState(target)), seed);
      cache->noteReseed();
    }
    it = sessions.emplace(&target, std::move(s)).first;
  }
  Sess& s = it->second;

  std::uint64_t next = 0;
  if (cache) {
    next = util::fnv1a(stepFingerprint(target, obj, dir, options), s.chain);
    if (PrefixCache::Blob hit = cache->get(next)) {
      // Deferred restore: park the snapshot, leave the module untouched (so
      // the recorded stamp stays valid) and skip the step entirely.
      s.pending = std::move(hit);
      s.chain = next;
      s.compactor.reset();
      cache->noteRestoredStep();
      return true;
    }
  }
  try {
    if (s.pending) materialize(s, target);
    if (!s.compactor || s.compactor->options().engine != options.engine)
      s.compactor = std::make_unique<Compactor>(target, options);
    s.compactor->compact(obj, dir, options);
    s.stamp = target.stamp();
    if (cache) {
      s.chain = next;
      cache->put(next, io::serializeSessionState(target));
    }
  } catch (...) {
    // The step may have half-applied; the stale stamp would catch it, but
    // drop the session eagerly so neither index nor blob stays pinned.
    sessions.erase(&target);
    throw;
  }
  return false;
}

void sessionSync(db::Module& m) {
  auto& sessions = tlsSessions();
  const auto it = sessions.find(&m);
  if (it == sessions.end()) return;
  Sess& s = it->second;
  if (s.stamp != m.stamp()) {
    sessions.erase(it);  // stale: the pending state was abandoned
    return;
  }
  if (s.pending) materialize(s, m);
}

void sessionEnd(db::Module& m) {
  sessionSync(m);
  tlsSessions().erase(&m);
}

void sessionAbandon(db::Module& m) noexcept { tlsSessions().erase(&m); }

std::size_t liveSessions() { return tlsSessions().size(); }

}  // namespace amg::compact
