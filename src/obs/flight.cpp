#include "obs/flight.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <exception>

namespace amg::obs::flight {
namespace {

// Fixed budget: 32 rings x 64 events x 64 B = 128 KiB of storage; the dump
// renders to well under the 64 KiB output cap.
constexpr int kMaxRings = 32;
constexpr int kEventsPerRing = 64;
constexpr std::size_t kMaxDumpBytes = 63 * 1024;

enum Kind : std::uint8_t { kEmpty = 0, kBegin, kEnd, kLog, kMark };

struct Event {
  std::int64_t ns;     // since the recorder epoch
  const char* name;    // static literal (span name / log category / mark)
  std::uint8_t kind;
  std::uint8_t level;  // LogLevel for kLog events
  char detail[46];     // NUL-terminated truncated copy
};
static_assert(sizeof(Event) == 64);

struct Ring {
  std::atomic<std::uint64_t> head{0};  // events ever pushed; slot = head % N
  Event ev[kEventsPerRing];
};

Ring gRings[kMaxRings];
/// Which rings a live thread holds.
std::atomic<bool> gClaimed[kMaxRings];
/// High-water mark: rings [0, gRingCount) have had an owner (the dump
/// covers them all — an exited thread's last events stay readable until
/// the next claimant overwrites them).
std::atomic<int> gRingCount{0};
std::atomic<std::uint64_t> gDropped{0};
std::atomic<bool> gCrashDumped{false};
std::atomic<std::FILE*> gDumpStream{nullptr};

std::chrono::steady_clock::time_point epoch() {
  static const auto e = std::chrono::steady_clock::now();
  return e;
}

std::int64_t toNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch())
      .count();
}

// Ring acquisition: a thread's first note claims the lowest free ring, and
// thread exit releases it (long-lived servers start a thread per
// connection; without release the recorder went blind after 32 of them).
// Only threads arriving while every ring is held drop their notes.
thread_local Ring* tRing = nullptr;
thread_local int tRingIdx = -1;
thread_local bool tRingTried = false;

struct RingRelease {
  ~RingRelease() {
    if (tRingIdx < 0) return;
    gClaimed[tRingIdx].store(false, std::memory_order_release);
    tRing = nullptr;  // later notes from other thread-exit code drop
    tRingIdx = -1;
  }
};

Ring* localRing() {
  if (tRingTried) return tRing;
  tRingTried = true;
  for (int i = 0; i < kMaxRings; ++i) {
    bool expected = false;
    if (gClaimed[i].load(std::memory_order_relaxed) ||
        !gClaimed[i].compare_exchange_strong(expected, true,
                                             std::memory_order_acquire))
      continue;
    tRing = &gRings[i];
    tRingIdx = i;
    int hw = gRingCount.load(std::memory_order_relaxed);
    while (hw < i + 1 &&
           !gRingCount.compare_exchange_weak(hw, i + 1, std::memory_order_release))
      ;
    thread_local RingRelease release;  // registers the release at thread exit
    (void)release;
    return tRing;
  }
  gDropped.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void push(std::uint8_t kind, const char* name, std::int64_t ns,
          std::uint8_t level, const char* detail, std::size_t dlen) {
  Ring* r = localRing();
  if (!r) return;
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  Event& e = r->ev[h % kEventsPerRing];
  e.ns = ns;
  e.name = name;
  e.kind = kind;
  e.level = level;
  std::size_t n = dlen;
  if (n > sizeof e.detail - 1) n = sizeof e.detail - 1;
  if (detail && n) std::memcpy(e.detail, detail, n);
  e.detail[n] = '\0';
  // Publish after the slot is fully written so a dumping thread never sees
  // a half-written *newest* event (the oldest slot being recycled can still
  // tear — a flight recorder is best-effort by design).
  r->head.store(h + 1, std::memory_order_release);
}

std::int64_t sampleNs() { return toNs(std::chrono::steady_clock::now()); }

// ---- async-signal-safe rendering ----------------------------------------
//
// Everything below runs from crash handlers: no malloc, no stdio, no
// locale — decimal formatting by hand into stack buffers, write(2) only.

struct FdWriter {
  int fd;
  std::size_t written = 0;
  bool truncated = false;

  void put(const char* s, std::size_t n) {
    if (truncated) return;
    if (written + n > kMaxDumpBytes) {
      static const char marker[] = "flight: [dump truncated]\n";
      (void)!::write(fd, marker, sizeof marker - 1);
      truncated = true;
      written = kMaxDumpBytes;
      return;
    }
    (void)!::write(fd, s, n);
    written += n;
  }
  void puts(const char* s) { put(s, std::strlen(s)); }
};

// Unsigned decimal into buf; returns digit count.  buf must hold 20+1.
std::size_t utoa(std::uint64_t v, char* buf) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  buf[n] = '\0';
  return n;
}

// "+12345.678ms" (millisecond precision is plenty for a post-mortem).
void putTimestamp(FdWriter& w, std::int64_t ns) {
  char buf[32];
  std::size_t p = 0;
  buf[p++] = ns < 0 ? '-' : '+';
  const std::uint64_t abs =
      ns < 0 ? static_cast<std::uint64_t>(-ns) : static_cast<std::uint64_t>(ns);
  p += utoa(abs / 1000000u, buf + p);
  buf[p++] = '.';
  const std::uint64_t us = abs / 1000u % 1000u;
  buf[p++] = static_cast<char>('0' + us / 100);
  buf[p++] = static_cast<char>('0' + us / 10 % 10);
  buf[p++] = static_cast<char>('0' + us % 10);
  buf[p++] = 'm';
  buf[p++] = 's';
  w.put(buf, p);
}

const char* levelTag(std::uint8_t level) {
  // Mirrors obs::LogLevel without including obs.h in handler-reachable code.
  static const char* const names[] = {"off",  "error", "warn",
                                      "info", "debug", "trace"};
  return level < 6 ? names[level] : "?";
}

std::size_t dumpImpl(int fd) {
  FdWriter w{fd};
  const int rings = std::min<int>(gRingCount.load(std::memory_order_acquire),
                                  kMaxRings);
  char num[24];

  w.puts("flight: ---- flight-recorder dump (");
  w.put(num, utoa(static_cast<std::uint64_t>(rings), num));
  w.puts(" threads");
  if (const std::uint64_t d = gDropped.load(std::memory_order_relaxed)) {
    w.puts(", ");
    w.put(num, utoa(d, num));
    w.puts(" dropped");
  }
  w.puts(") ----\n");

  for (int ri = 0; ri < rings; ++ri) {
    const Ring& r = gRings[ri];
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    if (head == 0) continue;
    const std::uint64_t first =
        head > kEventsPerRing ? head - kEventsPerRing : 0;

    w.puts("flight: -- thread ");
    w.put(num, utoa(static_cast<std::uint64_t>(ri), num));
    w.puts(": ");
    w.put(num, utoa(head - first, num));
    w.puts(" of ");
    w.put(num, utoa(head, num));
    w.puts(" events --\n");

    for (std::uint64_t i = first; i < head && !w.truncated; ++i) {
      const Event& e = r.ev[i % kEventsPerRing];
      if (e.kind == kEmpty || !e.name) continue;
      w.puts("flight: [");
      w.put(num, utoa(static_cast<std::uint64_t>(ri), num));
      w.puts(" ");
      putTimestamp(w, e.ns);
      w.puts("] ");
      switch (e.kind) {
        case kBegin: w.puts("B "); break;
        case kEnd: w.puts("E "); break;
        case kLog:
          w.puts("L ");
          w.puts(levelTag(e.level));
          w.puts(" ");
          break;
        case kMark: w.puts("M "); break;
        default: w.puts("? "); break;
      }
      w.puts(e.name);
      if (e.detail[0]) {
        w.puts(" ");
        w.put(e.detail, std::strlen(e.detail));
      }
      w.puts("\n");
    }
    if (w.truncated) break;
  }
  w.puts("flight: ---- end of dump ----\n");
  return w.written;
}

// ---- crash plumbing ------------------------------------------------------

void onFatalSignal(int sig) {
  if (!gCrashDumped.exchange(true, std::memory_order_acq_rel)) dumpImpl(2);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void onTerminate() {
  static const char msg[] = "flight: std::terminate\n";
  (void)!::write(2, msg, sizeof msg - 1);
  if (!gCrashDumped.exchange(true, std::memory_order_acq_rel)) dumpImpl(2);
  std::abort();
}

}  // namespace

bool enabled() {
  static const bool on = [] {
    const char* v = std::getenv("AMG_FLIGHT");
    return !(v && v[0] == '0' && v[1] == '\0');
  }();
  return on;
}

void noteSpanBegin(const char* name,
                   std::chrono::steady_clock::time_point start) {
  if (!enabled()) return;
  push(kBegin, name, toNs(start), 0, nullptr, 0);
}

void noteSpanEnd(const char* name) {
  if (!enabled()) return;
  push(kEnd, name, sampleNs(), 0, nullptr, 0);
}

void noteLog(int level, const char* category, const char* message,
             std::size_t length) {
  if (!enabled()) return;
  push(kLog, category, sampleNs(), static_cast<std::uint8_t>(level), message,
       length);
}

void mark(const char* name, const char* detail) {
  if (!enabled()) return;
  push(kMark, name, sampleNs(), 0, detail,
       detail ? std::strlen(detail) : 0);
}

std::size_t dump(int fd) { return dumpImpl(fd); }

std::size_t dumpToStream() {
  std::FILE* f = gDumpStream.load(std::memory_order_acquire);
  if (!f) f = stderr;
  std::fflush(f);
  return dumpImpl(fileno(f));
}

void setDumpStream(std::FILE* f) {
  gDumpStream.store(f, std::memory_order_release);
}

void installCrashHandlers() {
  if (!enabled()) return;
  static const bool once = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onFatalSignal;
    sigemptyset(&sa.sa_mask);
    for (const int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT})
      sigaction(sig, &sa, nullptr);
    std::set_terminate(onTerminate);
    return true;
  }();
  (void)once;
}

void resetForTest() {
  const int rings = std::min<int>(gRingCount.load(std::memory_order_acquire),
                                  kMaxRings);
  for (int i = 0; i < rings; ++i) {
    gRings[i].head.store(0, std::memory_order_release);
    std::memset(gRings[i].ev, 0, sizeof gRings[i].ev);
  }
  gDropped.store(0, std::memory_order_relaxed);
  gCrashDumped.store(false, std::memory_order_relaxed);
}

std::uint64_t droppedThreads() {
  return gDropped.load(std::memory_order_relaxed);
}

}  // namespace amg::obs::flight
