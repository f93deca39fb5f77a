// Regression tests for tech/rulecache.h: the memoized flat rule table must
// answer every query byte-identically to the uncached tech::Technology maps,
// for both shipped built-in decks AND both parsed tech files — and it must be
// rebuilt after any rule mutation.
#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "tech/builtin.h"
#include "tech/rulecache.h"
#include "tech/techfile.h"

namespace amg::tech {
namespace {

/// Compare every cached answer against the authoritative Technology query
/// over the full layer-pair cross product.
void expectCacheMatches(const Technology& t) {
  const RuleCache& rc = t.rules();
  const auto n = static_cast<LayerId>(t.layerCount());
  for (LayerId a = 0; a < n; ++a) {
    EXPECT_EQ(rc.findMinWidth(a), t.findMinWidth(a)) << t.name() << " minWidth " << a;
    EXPECT_EQ(rc.kind(a), t.info(a).kind) << t.name() << " kind " << a;
    EXPECT_EQ(rc.conducting(a), t.info(a).conducting) << t.name() << " cond " << a;

    std::optional<std::pair<Coord, Coord>> cut;
    try {
      cut = t.cutSize(a);
    } catch (const DesignRuleError&) {
      // no cut size registered for this layer
    }
    EXPECT_EQ(rc.findCutSize(a), cut) << t.name() << " cutSize " << a;

    for (LayerId b = 0; b < n; ++b) {
      EXPECT_EQ(rc.minSpacing(a, b), t.minSpacing(a, b))
          << t.name() << " spacing " << a << "," << b;
      EXPECT_EQ(rc.enclosure(a, b), t.enclosure(a, b))
          << t.name() << " enclosure " << a << "," << b;
      EXPECT_EQ(rc.extension(a, b), t.extension(a, b))
          << t.name() << " extension " << a << "," << b;
      const bool device =
          t.extension(a, b).has_value() || t.extension(b, a).has_value();
      EXPECT_EQ(rc.formsDevice(a, b), device)
          << t.name() << " device " << a << "," << b;
    }
  }
}

TEST(RuleCache, FindCutSizeMatchesCutSizeOnEveryBuiltinLayer) {
  // The cache is built with the non-throwing Technology::findCutSize; it
  // must agree with cutSize() — a value where one exists, the
  // DesignRuleError where not — on every layer of every builtin deck.
  for (const Technology* t : {&bicmos1u(), &cmos2u()}) {
    const RuleCache& rc = t->rules();
    int cuts = 0;
    for (LayerId l = 0; l < static_cast<LayerId>(t->layerCount()); ++l) {
      ASSERT_EQ(rc.findCutSize(l), t->findCutSize(l)) << t->name() << " layer " << l;
      if (const auto cs = rc.findCutSize(l)) {
        EXPECT_EQ(*cs, t->cutSize(l)) << t->name() << " layer " << l;
        ++cuts;
      } else {
        EXPECT_THROW((void)t->cutSize(l), DesignRuleError) << t->name() << " layer " << l;
      }
    }
    EXPECT_GT(cuts, 0) << t->name();
  }
}

TEST(RuleCache, MatchesBuiltinBicmos1u) { expectCacheMatches(bicmos1u()); }

TEST(RuleCache, MatchesBuiltinCmos2u) { expectCacheMatches(cmos2u()); }

TEST(RuleCache, MatchesParsedBicmos1uTechFile) {
  expectCacheMatches(loadTechFile(AMG_REPO_DIR "/tech/bicmos1u.tech"));
}

TEST(RuleCache, MatchesParsedCmos2uTechFile) {
  expectCacheMatches(loadTechFile(AMG_REPO_DIR "/tech/cmos2u.tech"));
}

TEST(RuleCache, SameReferenceUntilMutation) {
  Technology t = loadTechFile(AMG_REPO_DIR "/tech/cmos2u.tech");
  const RuleCache* first = &t.rules();
  EXPECT_EQ(first, &t.rules()) << "repeated calls must reuse the snapshot";
  const Technology keeper = t;  // shares (and pins) the pre-mutation snapshot
  t.setMinSpacing(0, 1, 12345);
  const RuleCache* second = &t.rules();
  EXPECT_NE(first, second) << "mutation must invalidate the snapshot";
  EXPECT_EQ(first, &keeper.rules()) << "the copy must keep the old snapshot";
  EXPECT_EQ(second->minSpacing(0, 1), std::optional<Coord>(12345));
  expectCacheMatches(t);
}

TEST(RuleCache, MutationOfEveryRuleKindInvalidates) {
  Technology t("toy");
  const LayerId m1 = t.addLayer({"m1", LayerKind::Metal, 1, "#000", "solid", true});
  const LayerId via = t.addLayer({"v", LayerKind::Cut, 2, "#000", "solid", true});
  const LayerId m2 = t.addLayer({"m2", LayerKind::Metal, 3, "#000", "solid", true});

  EXPECT_EQ(t.rules().findMinWidth(m1), std::nullopt);
  t.setMinWidth(m1, 600);
  EXPECT_EQ(t.rules().findMinWidth(m1), std::optional<Coord>(600));

  EXPECT_EQ(t.rules().minSpacing(m1, m2), std::nullopt);
  t.setMinSpacing(m1, m2, 800);
  EXPECT_EQ(t.rules().minSpacing(m1, m2), std::optional<Coord>(800));
  EXPECT_EQ(t.rules().minSpacing(m2, m1), std::optional<Coord>(800))
      << "spacing is symmetric";

  t.setEnclosure(m1, via, 200);
  EXPECT_EQ(t.rules().enclosure(m1, via), std::optional<Coord>(200));
  EXPECT_EQ(t.rules().enclosure(via, m1), std::nullopt) << "enclosure is ordered";

  t.setExtension(m1, m2, 300);
  EXPECT_EQ(t.rules().extension(m1, m2), std::optional<Coord>(300));
  EXPECT_TRUE(t.rules().formsDevice(m1, m2));
  EXPECT_TRUE(t.rules().formsDevice(m2, m1));

  EXPECT_EQ(t.rules().findCutSize(via), std::nullopt);
  t.setCutSize(via, 500, 500);
  const std::optional<std::pair<Coord, Coord>> wantCut(std::in_place, 500, 500);
  EXPECT_EQ(t.rules().findCutSize(via), wantCut);

  // Adding a layer after the cache was built must grow the table.
  const LayerId m3 = t.addLayer({"m3", LayerKind::Metal, 4, "#000", "solid", true});
  EXPECT_EQ(t.rules().findMinWidth(m3), std::nullopt);
  EXPECT_EQ(t.rules().kind(m3), LayerKind::Metal);
  expectCacheMatches(t);
}

TEST(RuleCache, CopiedTechnologyIsIndependentAfterMutation) {
  Technology a = loadTechFile(AMG_REPO_DIR "/tech/bicmos1u.tech");
  (void)a.rules();     // build the snapshot pre-copy
  Technology b = a;    // copies share the immutable snapshot
  b.setMinSpacing(0, 1, 77777);
  EXPECT_EQ(b.rules().minSpacing(0, 1), std::optional<Coord>(77777));
  EXPECT_EQ(a.rules().minSpacing(0, 1), a.minSpacing(0, 1))
      << "mutating the copy must not disturb the original's cache";
  expectCacheMatches(a);
  expectCacheMatches(b);
}

}  // namespace
}  // namespace amg::tech
