#include "compact/compactor.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <set>

#include "db/connectivity.h"
#include "geom/spatial.h"
#include "obs/obs.h"
#include "primitives/primitives.h"
#include "tech/rulecache.h"

namespace amg::compact {

Engine defaultEngine() {
  return obs::spatialEngines().compactIndexed ? Engine::Indexed : Engine::BruteForce;
}

namespace {

using db::Module;
using db::NetId;
using db::Shape;
using db::ShapeId;
using tech::LayerId;
using tech::LayerKind;
using tech::RuleCache;
using tech::Technology;

bool layerIgnored(const Options& opt, LayerId l) {
  return std::find(opt.ignoreLayers.begin(), opt.ignoreLayers.end(), l) !=
         opt.ignoreLayers.end();
}

/// The clearance two shapes must keep, or nullopt when they may overlap
/// freely.  0 means "may abut but not overlap" — used both for the
/// same-potential merge exemption and for avoid-overlap shapes.  Queries go
/// through the flat RuleCache — this is the innermost loop of every
/// compaction step (shape-pair × search-tree-node in optimization mode).
std::optional<Coord> requiredGap(const RuleCache& rc, const Shape& a, const Shape& b,
                                 bool sameNet, const Options& opt) {
  const bool ignored = layerIgnored(opt, a.layer) || layerIgnored(opt, b.layer);
  if (a.layer == b.layer) {
    // "Edges on the same potential are not considered during compaction,
    // because they can be merged": stop at abutment instead of the rule.
    if (sameNet || ignored) return 0;
    if (auto s = rc.minSpacing(a.layer, a.layer)) return *s + opt.extraGap;
    if (a.avoidOverlap || b.avoidOverlap) return 0;
    return std::nullopt;
  }
  if (ignored) return std::nullopt;
  if (auto s = rc.minSpacing(a.layer, b.layer)) return *s + opt.extraGap;
  if (a.avoidOverlap || b.avoidOverlap) return 0;
  return std::nullopt;
}

Coord stationaryFront(Dir d, const Box& b) {
  switch (d) {
    case Dir::West: return b.x2;
    case Dir::East: return -b.x1;
    case Dir::South: return b.y2;
    case Dir::North: return -b.y1;
  }
  return 0;
}

Coord leadingEdge(Dir d, const Box& b) {
  switch (d) {
    case Dir::West: return b.x1;
    case Dir::East: return -b.x2;
    case Dir::South: return b.y1;
    case Dir::North: return -b.y2;
  }
  return 0;
}

Coord crossGap(Dir d, const Box& a, const Box& b) {
  return isHorizontal(d) ? gapY(a, b) : gapX(a, b);
}

Point actualTranslation(Dir d, Coord canonical) {
  switch (d) {
    case Dir::West: return {canonical, 0};
    case Dir::East: return {-canonical, 0};
    case Dir::South: return {0, canonical};
    case Dir::North: return {0, -canonical};
  }
  return {};
}

/// One pairwise constraint: the object must be translated by at least
/// `need` (canonical frame).
struct Constraint {
  Coord need;
  ShapeId targetShape;
  ShapeId objShape;
};

/// Net-name equivalence across two modules: objNet -> matching target net
/// (kNoNet when unmatched or anonymous).
std::vector<NetId> matchNets(const Module& target, const Module& obj) {
  std::vector<NetId> map(obj.netCount(), db::kNoNet);
  for (NetId n = 1; n < obj.netCount(); ++n)
    if (auto tn = target.findNet(obj.netName(n))) map[n] = *tn;
  return map;
}

std::vector<Constraint> computeConstraints(const Module& target, const Module& obj,
                                           Dir dir, const Options& opt) {
  const RuleCache& rc = target.technology().rules();
  const std::vector<NetId> netMap = matchNets(target, obj);
  std::vector<Constraint> out;
  for (ShapeId ti : target.shapeIds()) {
    const Shape& ts = target.shape(ti);
    for (ShapeId oi : obj.shapeIds()) {
      const Shape& os = obj.shape(oi);
      const bool sameNet =
          os.net != db::kNoNet && netMap[os.net] != db::kNoNet && netMap[os.net] == ts.net;
      const auto gap = requiredGap(rc, ts, os, sameNet, opt);
      if (!gap) continue;
      if (crossGap(dir, ts.box, os.box) >= *gap) continue;  // clear on the cross axis
      const Coord need = stationaryFront(dir, ts.box) + *gap - leadingEdge(dir, os.box);
      out.push_back(Constraint{need, ti, oi});
    }
  }
  const auto universe =
      static_cast<std::uint64_t>(target.shapeCount()) * obj.shapeCount();
  OBS_COUNT_N("compact.constraints.universe", universe);
  OBS_COUNT_N("compact.constraints.candidates", universe);  // brute examines all
  OBS_COUNT_N("compact.constraints.emitted", out.size());
  return out;
}

constexpr Coord kFar = std::numeric_limits<Coord>::max() / 2;

/// A query window covering everything within `halo` of `b` on the cross
/// axis of `dir`, and along the movement axis every box whose canonical
/// extent reaches [uFrom, uTo] (stationaryFront >= uFrom and leadingEdge
/// <= uTo; kFar bounds mean open, which SpatialIndex clamps to its content
/// bounds).
Box axisWindow(Dir d, const Box& b, Coord halo, Coord uFrom, Coord uTo) {
  const Coord lo = std::max(uFrom, -kFar), hi = std::min(uTo, kFar);
  switch (d) {
    case Dir::West: return Box{lo, b.y1 - halo, hi, b.y2 + halo};
    case Dir::East: return Box{-hi, b.y1 - halo, -lo, b.y2 + halo};
    case Dir::South: return Box{b.x1 - halo, lo, b.x2 + halo, hi};
    case Dir::North: return Box{b.x1 - halo, -hi, b.x2 + halo, -lo};
  }
  return {};
}

/// The session index over the stationary target.  It stays a superset
/// through every mutation a step makes: variable edges only ever *shrink*
/// (a stale larger box widens the candidate set, and the exact rule test
/// runs on current boxes), and grown or re-created shapes are re-inserted.
geom::SpatialIndex buildTargetIndex(const Module& target) {
  geom::SpatialIndex idx;
  for (ShapeId id : target.shapeIds())
    idx.insert(id, target.shape(id).layer, target.shape(id).box);
  return idx;
}

/// Largest and second-largest distinct `need`, kNone when absent.
void extremes(const std::vector<Constraint>& cons, Coord& fmax, Coord& f2) {
  fmax = kNone;
  f2 = kNone;
  for (const Constraint& c : cons) {
    if (c.need > fmax) {
      f2 = fmax;
      fmax = c.need;
    } else if (c.need > f2 && c.need < fmax) {
      f2 = c.need;
    }
  }
}

/// The constraints one step can be decided by, found at frontier cost.
///
/// A pair (t, o) needs  stationaryFront(t) + gap - leadingEdge(o)  with
/// gap <= halo(o), so every pair whose need reaches a threshold `floor`
/// has its target shape within  floor - halo(o) + leadingEdge(o)  of the
/// structure's outer edge.  Each object shape therefore queries its cross
/// band only that deep along the movement axis, starting just behind the
/// outer edge (the index bounds) and doubling the depth until the answer
/// is exact: the largest need and every binding pair once fmax >= floor,
/// the second-largest distinct need once f2 >= floor (asked for only when
/// the variable-edge loop will read it), or everything once the window
/// spans the whole target.  Pairs below `floor` may be partial; nothing
/// downstream reads them.  Output is sorted in brute-force (target,
/// object) pair order so the variable-edge loop is byte-identical.
struct Frontier {
  std::vector<Constraint> cons;
  Coord fmax = kNone;
  Coord f2 = kNone;
};

Frontier frontierConstraints(const Module& target, const Module& obj, Dir dir,
                             const Options& opt, const geom::SpatialIndex& idx,
                             const std::function<bool(const Frontier&)>& needF2) {
  const RuleCache& rc = target.technology().rules();
  const std::vector<NetId> netMap = matchNets(target, obj);
  const std::vector<ShapeId> objIds = obj.shapeIds();
  std::vector<Coord> halo(objIds.size());
  // The deepest useful threshold (every pair admitted by a window that
  // reaches past the whole target) and the shallowest one (a target shape
  // on the outer edge at the full halo).
  const Coord uLo = leadingEdge(dir, idx.bounds());
  const Coord uHi = stationaryFront(dir, idx.bounds());
  Coord fullFloor = kFar, ceiling = -kFar;
  for (std::size_t k = 0; k < objIds.size(); ++k) {
    const Shape& os = obj.shape(objIds[k]);
    halo[k] = std::max<Coord>(0, rc.maxSpacing(os.layer) + opt.extraGap);
    fullFloor = std::min(fullFloor, uLo + halo[k] - leadingEdge(dir, os.box));
    ceiling = std::max(ceiling, uHi + halo[k] - leadingEdge(dir, os.box));
  }

  Frontier f;
  std::vector<std::uint32_t> cand;
  std::uint64_t candTotal = 0, passes = 0;
  for (Coord depth = geom::SpatialIndex::kDefaultCellSize;; depth *= 2) {
    const bool full = idx.empty() || ceiling - depth <= fullFloor;
    const Coord floor = full ? kNone : ceiling - depth;
    ++passes;
    f.cons.clear();
    for (std::size_t k = 0; k < objIds.size(); ++k) {
      const ShapeId oi = objIds[k];
      const Shape& os = obj.shape(oi);
      const Coord uFrom = full ? -kFar : floor - halo[k] + leadingEdge(dir, os.box);
      if (uFrom > uHi) continue;  // no target shape can reach the floor
      idx.query(axisWindow(dir, os.box, halo[k], uFrom, kFar), cand);
      candTotal += cand.size();
      for (const std::uint32_t ti : cand) {
        // The session index keeps ids retired by array rebuilds; brute
        // force iterates shapeIds(), which is alive-only.
        if (!target.isAlive(ti)) continue;
        const Shape& ts = target.shape(ti);
        const bool sameNet = os.net != db::kNoNet && netMap[os.net] != db::kNoNet &&
                             netMap[os.net] == ts.net;
        const auto gap = requiredGap(rc, ts, os, sameNet, opt);
        if (!gap) continue;
        if (crossGap(dir, ts.box, os.box) >= *gap) continue;
        const Coord need = stationaryFront(dir, ts.box) + *gap - leadingEdge(dir, os.box);
        f.cons.push_back(Constraint{need, ti, oi});
      }
    }
    extremes(f.cons, f.fmax, f.f2);
    if (full) break;
    if (f.cons.empty() || f.fmax < floor) continue;
    if (f.f2 >= floor || !needF2(f)) break;
  }
  std::sort(f.cons.begin(), f.cons.end(), [](const Constraint& a, const Constraint& b) {
    return a.targetShape != b.targetShape ? a.targetShape < b.targetShape
                                          : a.objShape < b.objShape;
  });
  const auto universe =
      static_cast<std::uint64_t>(target.shapeCount()) * objIds.size();
  OBS_COUNT_N("compact.constraints.universe", universe);
  OBS_COUNT_N("compact.constraints.candidates", candTotal);
  if (universe > candTotal)
    OBS_COUNT_N("compact.constraints.pruned", universe - candTotal);
  OBS_COUNT_N("compact.constraints.passes", passes);
  OBS_COUNT_N("compact.constraints.emitted", f.cons.size());
  return f;
}

/// Fallback when nothing constrains the object: abut the bounding boxes.
Coord bboxAbutTranslation(const Module& target, const Module& obj, Dir dir) {
  const Box tb = target.bboxAll();
  const Box ob = obj.bboxAll();
  if (tb.empty() || ob.empty()) return 0;
  return stationaryFront(dir, tb) - leadingEdge(dir, ob);
}

/// Move side `s` of the shape inwards by `d`.
void shrinkEdge(Module& m, ShapeId id, Side s, Coord d) {
  Box& b = m.shape(id).box;
  switch (s) {
    case Side::Left: b.x1 += d; break;
    case Side::Bottom: b.y1 += d; break;
    case Side::Right: b.x2 -= d; break;
    case Side::Top: b.y2 -= d; break;
  }
}

/// Exact auto-connect safety test over one candidate list: extending `b` to
/// `cand` must not create a device crossing or a rule violation against any
/// listed shape.  Shared by the brute-force path (list = all shape ids) and
/// the indexed path (list = halo query around the extension).
bool extensionSafe(const Module& target, const RuleCache& rc, const Options& options,
                   ShapeId bi, ShapeId ni, const Shape& b, const Shape& cand,
                   const std::vector<ShapeId>& candidates) {
  for (ShapeId ci : candidates) {
    if (ci == bi || ci == ni) continue;
    const Shape& c = target.shape(ci);
    if (rc.formsDevice(cand.layer, c.layer) && cand.box.overlaps(c.box) &&
        !b.box.overlaps(c.box))
      return false;
    const bool sameNet = c.net != db::kNoNet && c.net == cand.net;
    const auto g = requiredGap(rc, c, cand, sameNet, options);
    if (!g) continue;
    if (gapX(c.box, cand.box) < *g && gapY(c.box, cand.box) < *g &&
        !(gapX(c.box, b.box) < *g && gapY(c.box, b.box) < *g))
      return false;
  }
  return true;
}

void rebuildArraysFor(Module& m, const std::set<ShapeId>& changed,
                      geom::SpatialIndex* idx = nullptr) {
  if (changed.empty()) return;
  for (db::ArrayRecord& rec : m.arrayRecords()) {
    const bool affected = std::any_of(
        rec.containers.begin(), rec.containers.end(),
        [&](ShapeId id) { return changed.count(id) != 0; });
    if (!affected) continue;
    prim::rebuildArray(m, rec);
    if (!idx) continue;
    // Keep a live index a superset across the rebuild: it may grow
    // containers in place and replaces the cut elements with fresh ids.
    // Retired ids linger in the index; indexed candidate loops filter on
    // isAlive (the brute-force lists are alive-only by construction).
    for (ShapeId id : rec.containers)
      idx->insert(id, m.shape(id).layer, m.shape(id).box);
    for (ShapeId id : rec.elems)
      idx->insert(id, m.shape(id).layer, m.shape(id).box);
  }
}

}  // namespace

Coord maxShrink(const Module& m, ShapeId id, Side side) {
  const RuleCache& rc = m.technology().rules();
  const Shape& s = m.shape(id);
  const bool horizontalEdge = (side == Side::Left || side == Side::Right);
  const Coord axisLen = horizontalEdge ? s.box.width() : s.box.height();

  // Cuts are fixed-size; their edges never move.
  if (rc.kind(s.layer) == LayerKind::Cut) return 0;

  Coord limit = axisLen - rc.findMinWidth(s.layer).value_or(0);

  // Keep enclosed inbox shapes inside with their margin.
  for (const db::EncloseRecord& enc : m.encloseRecords()) {
    if (enc.inner == db::kNoShape || !m.isAlive(enc.inner)) continue;
    if (std::find(enc.outers.begin(), enc.outers.end(), id) == enc.outers.end()) continue;
    // Skip self-records where this shape is the inner as well.
    if (enc.inner == id) continue;
    const Shape& inner = m.shape(enc.inner);
    const Coord margin = rc.enclosure(s.layer, inner.layer).value_or(0);
    Coord room = 0;
    switch (side) {
      case Side::Left: room = inner.box.x1 - margin - s.box.x1; break;
      case Side::Bottom: room = inner.box.y1 - margin - s.box.y1; break;
      case Side::Right: room = s.box.x2 - (inner.box.x2 + margin); break;
      case Side::Top: room = s.box.y2 - (inner.box.y2 + margin); break;
    }
    limit = std::min(limit, room);
  }

  // Cut arrays are rebuilt after the move, but the container must keep room
  // for at least one cut with its enclosure margin.
  for (const db::ArrayRecord& rec : m.arrayRecords()) {
    if (rec.elems.empty()) continue;
    if (std::find(rec.containers.begin(), rec.containers.end(), id) ==
        rec.containers.end())
      continue;
    const auto cs = rc.findCutSize(rec.elemLayer);
    // Cache miss means no cut size is registered; the Technology call keeps
    // the original DesignRuleError diagnostics for that case.
    const auto [cw, ch] = cs ? *cs : m.technology().cutSize(rec.elemLayer);
    const Coord margin = rc.enclosure(s.layer, rec.elemLayer).value_or(0);
    const Coord needed = (horizontalEdge ? cw : ch) + 2 * margin;
    limit = std::min(limit, axisLen - needed);
  }

  return std::max<Coord>(limit, 0);
}

Coord requiredTranslation(const Module& target, const Module& obj, Dir dir,
                          const Options& options) {
  if (options.engine == Engine::Indexed)
    return frontierConstraints(target, obj, dir, options, buildTargetIndex(target),
                               [](const Frontier&) { return false; })
        .fmax;
  Coord best = kNone;
  for (const Constraint& c : computeConstraints(target, obj, dir, options))
    best = std::max(best, c.need);
  return best;
}

namespace {

/// "If an edge is variable and defines the minimum distance between the
/// two objects, the compactor tries to move it until it is no longer
/// relevant."  Shrinking helps only when *every* binding constraint has a
/// movable edge with remaining travel; a fixed binding constraint pins the
/// distance and further shrinking would waste geometry.
bool bindingMovable(const Module& target, const Module& work,
                    const std::vector<Constraint>& cons, Coord fmax, Dir dir) {
  return std::all_of(cons.begin(), cons.end(), [&](const Constraint& c) {
    if (c.need != fmax) return true;
    const Side ts = landingSide(dir);
    if (target.shape(c.targetShape).varEdges.variable(ts) &&
        maxShrink(target, c.targetShape, ts) > 0)
      return true;
    const Side os = frontSide(dir);
    return work.shape(c.objShape).varEdges.variable(os) &&
           maxShrink(work, c.objShape, os) > 0;
  });
}

/// True when some shape of `m` is alive; O(1) on every module that starts
/// with a live shape, unlike shapeCount().
bool hasAliveShape(const Module& m) {
  for (ShapeId id = 0; id < m.rawSize(); ++id)
    if (m.isAlive(id)) return true;
  return false;
}

/// The stationary shapes auto-connect must try for `arrival`, in id order.
///
/// A partner b lies ahead of the arrival in its cross band; its extension
/// spans b's cross extent from b to the arrival's leading edge.  A *wall*
/// is an alive same-layer shape c (not the arrival) whose leading edge is
/// ahead of the arrival's and whose required gap g to an extension is
/// fixed and not negative (0 for a shared or ignored potential, else the
/// layer's spacing rule or c's avoid-overlap).  A partner that overlaps c
/// on the cross axis and lies at least g beyond c would extend through c
/// while keeping g from b on no axis, so extensionSafe() rejects it: it is
/// dropped here without its O(distance) safety query.
///
/// The scan never reaches the far side of the structure.  Its window
/// starts one index cell deep and doubles until it holds a wall that
/// reaches the window's far end; partners beyond the window then overlap
/// such a wall unless they fit in a cross-axis gap between the walls, and
/// only those gaps are searched further (or everything, once the window
/// spans the whole target).
void reachablePartners(const Module& target, const RuleCache& rc, const Options& opt,
                       const geom::SpatialIndex& idx, Dir dir, ShapeId ni,
                       const Shape& arrival, bool ignoredLayer,
                       std::vector<ShapeId>& out) {
  const Coord aLead = leadingEdge(dir, arrival.box);
  const Coord uLo = leadingEdge(dir, idx.bounds());
  const bool horizontal = isHorizontal(dir);
  const auto crossLo = [&](const Box& b) { return horizontal ? b.y1 : b.x1; };
  const auto crossHi = [&](const Box& b) { return horizontal ? b.y2 : b.x2; };
  struct Wall {
    Coord key;  ///< overlapped partners whose front is <= key are rejected
    Coord lo, hi;
  };
  std::vector<Wall> walls;
  std::vector<std::uint32_t> more;
  for (Coord depth = geom::SpatialIndex::kDefaultCellSize;; depth *= 2) {
    const Coord from = aLead - depth;
    const bool full = from <= uLo;
    idx.query(arrival.layer, axisWindow(dir, arrival.box, 0, full ? -kFar : from, aLead),
              out);
    if (full) return;
    walls.clear();
    for (const ShapeId ci : out) {
      if (ci == ni || !target.isAlive(ci)) continue;
      const Shape& c = target.shape(ci);
      if (leadingEdge(dir, c.box) >= aLead) continue;
      Coord g;
      if (ignoredLayer || (c.net != db::kNoNet && c.net == arrival.net)) {
        g = 0;
      } else if (const auto s = rc.minSpacing(c.layer, c.layer)) {
        g = *s + opt.extraGap;
      } else if (c.avoidOverlap) {
        g = 0;
      } else {
        continue;  // the gap would depend on the partner
      }
      if (g < 0) continue;
      walls.push_back(Wall{leadingEdge(dir, c.box) - g, crossLo(c.box), crossHi(c.box)});
    }
    // Walls reaching the window's far end guard everything beyond it.
    std::vector<Wall> guard;
    for (const Wall& w : walls)
      if (w.key >= from) guard.push_back(w);
    if (guard.empty()) continue;
    std::sort(guard.begin(), guard.end(),
              [](const Wall& a, const Wall& b) { return a.lo < b.lo; });
    // A partner beyond the window that overlaps no guard wall has its
    // cross extent inside one gap of their union: search just the gaps.
    const auto searchGap = [&](Coord lo, Coord hi) {
      if (hi - lo >= 2) {  // partners inside [lo, hi] reach (lo, hi) too
        ++lo;
        --hi;
      }
      Box band = arrival.box;
      (horizontal ? band.y1 : band.x1) = lo;
      (horizontal ? band.y2 : band.x2) = hi;
      idx.query(arrival.layer, axisWindow(dir, band, 0, -kFar, from), more);
      out.insert(out.end(), more.begin(), more.end());
    };
    Coord reach = crossLo(arrival.box);
    for (const Wall& w : guard) {
      if (w.lo > reach) searchGap(reach, std::min(w.lo, crossHi(arrival.box)));
      reach = std::max(reach, w.hi);
      if (reach >= crossHi(arrival.box)) break;
    }
    if (reach < crossHi(arrival.box)) searchGap(reach, crossHi(arrival.box));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](ShapeId bi) {
                               if (!target.isAlive(bi)) return true;
                               const Box& b = target.shape(bi).box;
                               const Coord front = stationaryFront(dir, b);
                               return std::any_of(walls.begin(), walls.end(), [&](const Wall& w) {
                                 return front <= w.key && crossLo(b) < w.hi && w.lo < crossHi(b);
                               });
                             }),
              out.end());
    return;
  }
}

/// The body of one successive-compaction step.  `idx` is the session's
/// live index over `target` (null for the brute-force engine); it is
/// maintained through every mutation this call makes, so it stays valid
/// for the next step.
Result compactImpl(db::Module& target, const db::Module& obj, Dir dir,
                   const Options& options, geom::SpatialIndex* idx) {
  if (&target.technology() != &obj.technology())
    throw Error("compact: object and target use different technologies");

  OBS_COUNT("compact.steps");
  if (options.engine == Engine::Indexed)
    OBS_COUNT("compact.engine.indexed");
  else
    OBS_COUNT("compact.engine.brute");
  obs::Span span("compact.step");
  if (span)
    span.arg("target", target.name())
        .arg("obj", obj.name())
        .arg("dir", dirName(dir))
        .arg("target_shapes", static_cast<std::uint64_t>(target.shapeCount()))
        .arg("obj_shapes", static_cast<std::uint64_t>(obj.shapeCount()));

  Result res;

  // "The first compaction command copies the first transistor into the
  // data structure."
  if (!hasAliveShape(target)) {
    res.idMap = target.merge(obj, geom::Transform{});
    if (idx)
      for (ShapeId id : target.shapeIds())
        idx->insert(id, target.shape(id).layer, target.shape(id).box);
    return res;
  }

  Module work = obj;  // the object may be modified (variable edges)
  std::set<ShapeId> changedTarget;
  std::set<ShapeId> changedWork;

  Coord tc = kNone;
  for (int iter = 0; iter < 64; ++iter) {
    std::vector<Constraint> cons;
    Coord fmax = kNone, f2 = kNone;
    // The variable-edge test below, memoized: the frontier search asks it
    // to decide whether f2 must be exact.
    std::optional<bool> movable;
    const auto isMovable = [&](const std::vector<Constraint>& cs, Coord fm) {
      if (!options.enableVariableEdges) return false;
      movable = bindingMovable(target, work, cs, fm, dir);
      return *movable;
    };
    if (idx) {
      Frontier f = frontierConstraints(target, work, dir, options, *idx,
                                       [&](const Frontier& fr) {
                                         return isMovable(fr.cons, fr.fmax);
                                       });
      cons = std::move(f.cons);
      fmax = f.fmax;
      f2 = f.f2;
    } else {
      cons = computeConstraints(target, work, dir, options);
      extremes(cons, fmax, f2);
    }
    OBS_HIST("compact.step.constraints", cons.size());
    if (cons.empty()) {
      tc = bboxAbutTranslation(target, work, dir);
      break;
    }
    tc = fmax;
    if (!options.enableVariableEdges) break;
    if (!(movable ? *movable : isMovable(cons, fmax))) break;

    bool progressed = false;
    for (const Constraint& c : cons) {
      if (c.need != fmax) continue;
      const Coord want = (f2 == kNone) ? std::numeric_limits<Coord>::max() : fmax - f2;

      const Side tSide = landingSide(dir);
      if (target.shape(c.targetShape).varEdges.variable(tSide)) {
        const Coord d = std::min(want, maxShrink(target, c.targetShape, tSide));
        if (d > 0) {
          shrinkEdge(target, c.targetShape, tSide, d);
          changedTarget.insert(c.targetShape);
          ++res.edgeMoves;
          progressed = true;
          continue;
        }
      }
      const Side oSide = frontSide(dir);
      if (work.shape(c.objShape).varEdges.variable(oSide)) {
        const Coord d = std::min(want, maxShrink(work, c.objShape, oSide));
        if (d > 0) {
          shrinkEdge(work, c.objShape, oSide, d);
          changedWork.insert(c.objShape);
          ++res.edgeMoves;
          progressed = true;
        }
      }
    }
    if (!progressed) break;
  }
  if (tc == kNone) tc = bboxAbutTranslation(target, work, dir);

  // "The objects affected by the movement are rebuilt automatically."
  rebuildArraysFor(target, changedTarget, idx);
  rebuildArraysFor(work, changedWork);

  res.translation = actualTranslation(dir, tc);
  const auto tf =
      geom::Transform::translate(res.translation.x, res.translation.y);
  const std::size_t preMergeCount = target.rawSize();
  const std::size_t preMergeNets = target.netCount();
  res.idMap = target.merge(work, tf);
  if (idx)
    for (ShapeId ai = static_cast<ShapeId>(preMergeCount); ai < target.rawSize(); ++ai)
      if (target.isAlive(ai))
        idx->insert(ai, target.shape(ai).layer, target.shape(ai).box);

  if (options.autoConnect) {
    // "The geometries of these layers are connected automatically after the
    // compaction if they are on the same potential": extend a stationary
    // shape's facing edge to reach a same-net arrival across the movement
    // axis, when no rule forbids it (Fig. 5a).
    const RuleCache& rc = target.technology().rules();
    std::set<ShapeId> extended;
    std::vector<ShapeId> biCand, safetyCand;
    std::uint64_t partners = 0, safetyTotal = 0;

    for (ShapeId ni = static_cast<ShapeId>(preMergeCount); ni < target.rawSize(); ++ni) {
      if (!target.isAlive(ni)) continue;
      const Shape arrival = target.shape(ni);
      if (!rc.conducting(arrival.layer)) continue;
      // Ignored layers were exempted from spacing because their shapes are
      // meant to merge; connect them even without declared potentials.
      const bool ignoredLayer = layerIgnored(options, arrival.layer);
      if (arrival.net == db::kNoNet && !ignoredLayer) continue;
      // A net first seen in this merge cannot appear on any pre-merge
      // shape, so no stationary partner exists — skip the scan outright
      // (unless the ignored-layer path bypasses the net test).  This
      // prunes both engines identically.
      if (!ignoredLayer && arrival.net >= preMergeNets) continue;

      if (idx) {
        reachablePartners(target, rc, options, *idx, dir, ni, arrival, ignoredLayer,
                          biCand);
      } else {
        biCand.clear();
        for (ShapeId bi = 0; bi < preMergeCount; ++bi) biCand.push_back(bi);
      }
      partners += biCand.size();
      for (ShapeId bi : biCand) {
        if (bi >= preMergeCount) continue;  // index also holds arrivals
        if (!target.isAlive(bi)) continue;
        const Shape& b = target.shape(bi);
        if (b.layer != arrival.layer) continue;
        if (!ignoredLayer && b.net != arrival.net) continue;
        if (db::electricallyTouching(arrival.box, b.box)) continue;
        if (crossGap(dir, b.box, arrival.box) >= 0) continue;  // no facing overlap
        const Coord gapAlong =
            isHorizontal(dir) ? gapX(b.box, arrival.box) : gapY(b.box, arrival.box);
        if (gapAlong <= 0) continue;  // overlapping or behind

        // Candidate: extend b's landing-side edge to touch the arrival.
        Box nb = b.box;
        const Side es = landingSide(dir);
        const Coord to = leadingEdge(dir, arrival.box);
        nb.setSide(es, (es == Side::Right || es == Side::Top) ? to : -to);
        if (nb.empty() || !nb.contains(b.box)) continue;

        // Safety: the extension must not violate a rule against any other
        // shape, and must not newly cross a layer this layer forms devices
        // with (a poly extension across diffusion would create a gate).
        Shape cand = b;
        cand.box = nb;
        if (idx) {
          const Coord halo = std::max<Coord>(0, rc.maxSpacing(cand.layer) + options.extraGap);
          idx->query(nb.expanded(halo), safetyCand);
          // Array rebuilds left retired ids behind; brute's shapeIds() is
          // alive-only, so drop them for identical safety decisions.
          safetyCand.erase(
              std::remove_if(safetyCand.begin(), safetyCand.end(),
                             [&](ShapeId ci) { return !target.isAlive(ci); }),
              safetyCand.end());
        } else {
          safetyCand = target.shapeIds();
        }
        safetyTotal += safetyCand.size();
        if (!extensionSafe(target, rc, options, bi, ni, b, cand, safetyCand)) continue;
        target.shape(bi).box = nb;
        if (idx) idx->insert(bi, b.layer, nb);
        extended.insert(bi);
        ++res.autoConnects;
      }
    }
    rebuildArraysFor(target, extended, idx);
    OBS_COUNT_N("compact.autoconnect.partners", partners);
    OBS_COUNT_N("compact.autoconnect.safety_candidates", safetyTotal);
  }
  OBS_COUNT_N("compact.edge_moves", res.edgeMoves);
  OBS_COUNT_N("compact.autoconnect.extensions", res.autoConnects);
  if (span) span.arg("edge_moves", res.edgeMoves).arg("auto_connects", res.autoConnects);
  return res;
}

}  // namespace

Result compact(db::Module& target, const db::Module& obj, Dir dir,
               const Options& options) {
  return Compactor(target, options).compact(obj, dir);
}

Result compact(db::Module& target, const db::Module& obj, Dir dir,
               std::initializer_list<std::string_view> ignoreLayerNames) {
  Options opt;
  for (std::string_view n : ignoreLayerNames)
    opt.ignoreLayers.push_back(target.technology().layer(n));
  return compact(target, obj, dir, opt);
}

Compactor::Compactor(db::Module& target, Options options)
    : target_(target), options_(std::move(options)) {
  if (options_.engine == Engine::Indexed) idx_.emplace(buildTargetIndex(target_));
}

Result Compactor::compact(const db::Module& obj, Dir dir) {
  return compactImpl(target_, obj, dir, options_, idx_ ? &*idx_ : nullptr);
}

Result Compactor::compact(const db::Module& obj, Dir dir,
                          const Options& stepOptions) {
  return compactImpl(target_, obj, dir, stepOptions, idx_ ? &*idx_ : nullptr);
}

}  // namespace amg::compact
