#include "tech/rulecache.h"

#include <algorithm>

namespace amg::tech {

RuleCache::RuleCache(const Technology& t) : n_(t.layerCount()) {
  spacing_.assign(n_ * n_, kNoRule);
  enclosure_.assign(n_ * n_, kNoRule);
  extension_.assign(n_ * n_, kNoRule);
  devicePair_.assign(n_ * n_, 0);
  minWidth_.assign(n_, kNoRule);
  cutW_.assign(n_, kNoRule);
  cutH_.assign(n_, kNoRule);
  kind_.resize(n_);
  conducting_.resize(n_);

  for (LayerId a = 0; a < n_; ++a) {
    kind_[a] = t.info(a).kind;
    conducting_[a] = t.info(a).conducting ? 1 : 0;
    if (auto w = t.findMinWidth(a)) minWidth_[a] = *w;
    // Any layer may carry a cut size (Technology keys the table by layer,
    // not by kind); mirror exactly what cutSize() would answer, without
    // its throw for the layers that have none.
    if (const auto cs = t.findCutSize(a)) {
      cutW_[a] = cs->first;
      cutH_[a] = cs->second;
    }
    for (LayerId b = 0; b < n_; ++b) {
      if (auto s = t.minSpacing(a, b)) spacing_[cell(a, b)] = *s;
      if (auto e = t.enclosure(a, b)) enclosure_[cell(a, b)] = *e;
      if (auto e = t.extension(a, b)) extension_[cell(a, b)] = *e;
    }
  }
  for (LayerId a = 0; a < n_; ++a)
    for (LayerId b = 0; b < n_; ++b)
      devicePair_[cell(a, b)] =
          extension_[cell(a, b)] != kNoRule || extension_[cell(b, a)] != kNoRule;

  maxSpacing_.assign(n_, 0);
  for (LayerId a = 0; a < n_; ++a)
    for (LayerId b = 0; b < n_; ++b)
      if (spacing_[cell(a, b)] != kNoRule)
        maxSpacing_[a] = std::max(maxSpacing_[a], spacing_[cell(a, b)]);
}

}  // namespace amg::tech
