// The per-module compaction session behind every DSL compact().
//
// §2.3 builds a module by compacting "only one new object in each step",
// and "only outer edges of the main object have to be kept in the data
// structure".  A DSL entity does exactly that to its `self`, one compact()
// at a time, so each module under construction gets one persistent
// Compactor: its spatial index lives from the module's first compact() to
// the end of the entity frame instead of being rebuilt per step, and each
// step then costs the frontier it touches, not the module.
//
// Validity.  A session describes its module only while nothing else
// mutates it.  The module's identity stamp (db::Module::stamp()) guards
// that: any out-of-band mutation between steps — a DSL primitive, a
// VARIANT rollback, a reused stack slot — changes the stamp, and the next
// step starts a fresh session from the module's current bytes.  (module,
// stamp) pairs never recur, so a stale session can never be mistaken for
// a live one.  Sessions are thread-local: a module is only ever built by
// one thread (the batch engine gives each job its own interpreter), so
// they need no locking and cannot alias across workers.
//
// The optional prefix store (compact/prefix.h).  With a PrefixCache the
// session also keeps a rolling FNV-1a chain per module:
//
//   seed    = H(format version, tech fingerprint)
//   chain_0 = H(raw session-state bytes of the starting target | seed)
//   chain_k = H(step_k | chain_{k-1})
//   step_k  = H(raw session-state bytes of the arriving object,
//               direction, canonicalized options: sorted ignore-layer
//               names, variable-edge/auto-connect flags, extra gap)
//
// The engine choice (indexed vs brute) is deliberately excluded: both
// produce byte-identical layouts (enforced by tests), so they share
// entries.  A chain hit is a *deferred* restore: the snapshot is parked
// and the step returns without touching the module, so a run of
// consecutive hits costs one hash + one LRU probe per step.  The blob is
// materialized at the first point something reads the module's actual
// bytes — the exec layer's requireSelf(), VARIANT entry/rating, or
// entity-frame end — via sessionSync()/sessionEnd() below.
#pragma once

#include "compact/compactor.h"
#include "compact/prefix.h"

namespace amg::compact {

/// One successive-compaction step of `obj` onto `target` through the
/// module's session.  With a cache, a chain hit parks the snapshot for
/// deferred restore and skips the step; otherwise any parked snapshot is
/// materialized, the step executes on the persistent Compactor and, with
/// a cache, the new state is recorded.  Returns true when the step was
/// served from cache.  Byte-identical to compact::compact() on every path.
bool sessionStep(db::Module& target, const db::Module& obj, Dir dir,
                 const Options& options, PrefixCache* cache = nullptr);

/// Flush a pending deferred restore so `m`'s bytes match its logical
/// state.  No-op when no session exists, the session is stale, or nothing
/// is pending.  Call before reading `m` outside sessionStep().
void sessionSync(db::Module& m);

/// Frame end: sessionSync() then free the session of `m` (its index
/// included); nothing outlives the entity frame.
void sessionEnd(db::Module& m);

/// Free the session without materializing (exception paths: the state is
/// being abandoned).  Never throws.
void sessionAbandon(db::Module& m) noexcept;

/// Number of sessions alive on the calling thread (tests: every frame end
/// must leave none behind).
std::size_t liveSessions();

}  // namespace amg::compact
