// The flight recorder: an always-on, lock-light ring buffer of recent
// observability events, dumped post-mortem.
//
// Tracing and stats are opt-in channels you enable *before* a run; a crash
// or a failed job in a 10⁴-job sweep needs the opposite — a record of what
// just happened that exists without anyone having asked for it.  This
// module keeps a fixed byte budget of the most recent span begin/end,
// emitted OBS_LOG lines and explicit mark() breadcrumbs in per-thread ring
// buffers (no locks, no allocation: static storage, one relaxed head per
// ring, owner-thread writes only; a ring is held from a thread's first
// note to its exit), and dumps them:
//
//  * from the crash handlers installed by installCrashHandlers()
//    (SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT + std::set_terminate), using
//    only async-signal-safe calls (hand-rolled formatting + write(2));
//  * on batch-job failure (gen::BatchEngine dumps once per run);
//  * on demand from tests via dumpToStream().
//
// Always on; `AMG_FLIGHT=0` in the environment kills it.  The dump is
// bounded (< 64 KiB, hard cap with a truncation marker) and grouped by
// thread — events are printed ring by ring in timestamp order within each
// ring, never sorted globally (sorting would need scratch memory a signal
// handler cannot safely get).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>

namespace amg::obs::flight {

/// Is the recorder active?  Cached read of AMG_FLIGHT (anything but "0"
/// enables); checked by every note so a killed recorder costs one branch.
bool enabled();

/// Record a span boundary.  `name` must be a string literal (the ring
/// stores the pointer).  The begin overload takes the already-sampled
/// construction timestamp so obs::Span doesn't read the clock twice.
void noteSpanBegin(const char* name,
                   std::chrono::steady_clock::time_point start);
void noteSpanEnd(const char* name);

/// Record an emitted log line (called by obs::logEmit for level-enabled
/// messages only, so OBS_LOG's lazy-message guarantee is preserved).
/// `category` must be a literal; the message is truncated into the event.
void noteLog(int level, const char* category, const char* message,
             std::size_t length);

/// Drop a breadcrumb: `name` a literal, `detail` (optional) copied and
/// truncated — safe for runtime strings like job names.
void mark(const char* name, const char* detail = nullptr);

/// Async-signal-safe dump of every ring to a file descriptor.  Returns the
/// number of bytes written (hard-capped below 64 KiB).
std::size_t dump(int fd);

/// Dump to the configured stream (default stderr): flushes the stream,
/// then writes through its descriptor.  Not for signal handlers.
std::size_t dumpToStream();

/// Redirect dumpToStream() and the batch-failure dump (nullptr restores
/// stderr).  Crash handlers always dump to stderr regardless.
void setDumpStream(std::FILE* f);

/// Install the signal + terminate handlers described above.  Idempotent;
/// called by the CLIs at startup.  No-op when the recorder is disabled.
void installCrashHandlers();

/// Zero every ring and the drop/once-guard state.  Threads keep their ring
/// assignments, so concurrent notes stay safe.  Test-only.
void resetForTest();

/// Threads that arrived while every ring was held by a live thread (their
/// notes are dropped; rings are released at thread exit); the dump header
/// reports this.
std::uint64_t droppedThreads();

}  // namespace amg::obs::flight
