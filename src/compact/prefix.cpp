#include "compact/prefix.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "obs/obs.h"
#include "util/hash.h"

namespace amg::compact {

PrefixCache::PrefixCache(PrefixCacheConfig cfg) : cfg_(std::move(cfg)) {}

std::string PrefixCache::diskPath(std::uint64_t key) const {
  return cfg_.diskDir + "/" + util::keyHex(key) + ".amgp";
}

PrefixCache::Blob PrefixCache::get(std::uint64_t key) {
  util::MutexLock lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    ++stats_.hits;
    OBS_COUNT("gen.prefix.hits");
    return it->second->second;
  }
  if (!cfg_.diskDir.empty()) {
    std::ifstream f(diskPath(key), std::ios::binary);
    if (f) {
      auto blob = std::make_shared<const std::vector<std::uint8_t>>(
          std::vector<std::uint8_t>((std::istreambuf_iterator<char>(f)),
                                    std::istreambuf_iterator<char>()));
      ++stats_.diskHits;
      OBS_COUNT("gen.prefix.disk_hits");
      if (blob->size() <= cfg_.maxBytes) {
        bytes_ += blob->size();
        lru_.emplace_front(key, blob);
        index_[key] = lru_.begin();
        evictToFit();
      }
      return blob;
    }
  }
  ++stats_.misses;
  OBS_COUNT("gen.prefix.misses");
  return nullptr;
}

void PrefixCache::put(std::uint64_t key, std::vector<std::uint8_t> bytes) {
  util::MutexLock lock(mu_);
  ++stats_.puts;
  OBS_COUNT("gen.prefix.puts");
  OBS_COUNT_N("gen.prefix.bytes_put", bytes.size());
  if (!cfg_.diskDir.empty()) {
    if (!diskDirReady_) {
      std::error_code ec;
      std::filesystem::create_directories(cfg_.diskDir, ec);
      diskDirReady_ = true;  // try once; a bad dir degrades to memory-only
    }
    std::ofstream f(diskPath(key), std::ios::binary | std::ios::trunc);
    if (f)
      f.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  if (const auto it = index_.find(key); it != index_.end()) {
    bytes_ -= it->second->second->size();
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (bytes.size() > cfg_.maxBytes) return;  // disk-only oversize blob
  auto blob =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  bytes_ += blob->size();
  lru_.emplace_front(key, std::move(blob));
  index_[key] = lru_.begin();
  evictToFit();
}

void PrefixCache::evictToFit() {
  while (bytes_ > cfg_.maxBytes && !lru_.empty()) {
    const auto& victim = lru_.back();
    bytes_ -= victim.second->size();
    index_.erase(victim.first);
    lru_.pop_back();
    ++stats_.evictions;
    OBS_COUNT("gen.prefix.evictions");
  }
}

PrefixCache::Stats PrefixCache::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

std::size_t PrefixCache::entryCount() const {
  util::MutexLock lock(mu_);
  return lru_.size();
}

std::size_t PrefixCache::byteCount() const {
  util::MutexLock lock(mu_);
  return bytes_;
}

void PrefixCache::noteRestoredStep() {
  util::MutexLock lock(mu_);
  ++stats_.restoredSteps;
  OBS_COUNT("gen.prefix.restored_steps");
}

void PrefixCache::noteMaterialization() {
  util::MutexLock lock(mu_);
  ++stats_.materializations;
  OBS_COUNT("gen.prefix.materializations");
}

void PrefixCache::noteReseed() {
  util::MutexLock lock(mu_);
  ++stats_.reseeds;
  OBS_COUNT("gen.prefix.reseeds");
}

bool prefixCacheEnvEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("AMG_PREFIX_CACHE");
    return !(v && v[0] == '0' && v[1] == '\0');
  }();
  return enabled;
}

}  // namespace amg::compact
