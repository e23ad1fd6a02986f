/**
 * @file
 * Cooperative shutdown: an async-signal-safe stop flag.
 *
 * The service-mode processes (`penelope_bench --serve/--worker`)
 * must not die mid-write on SIGINT/SIGTERM -- an append-only
 * ResultCache store file abandoned halfway through a record costs the
 * entry (the corrupt-tail tolerance recovers the file, not the
 * data).  Instead the handler sets a flag; the coordinator stops
 * accepting work and drains bounded, the worker finishes its slice
 * and leaves cleanly, both exit 0.
 *
 * The flag is process-global because signal disposition is: only
 * one shutdown request channel exists per process.  A second
 * signal restores the default disposition, so a stuck process can
 * still be killed the ordinary way.
 */

#ifndef PENELOPE_COMMON_SHUTDOWN_HH
#define PENELOPE_COMMON_SHUTDOWN_HH

namespace penelope {

/** Install SIGINT/SIGTERM handlers that request a cooperative
 *  shutdown (idempotent).  The second delivery of either signal
 *  falls back to the default (terminating) disposition. */
void installShutdownHandlers();

/** True once a shutdown signal arrived (or requestShutdown() was
 *  called).  Async-signal-safe, lock-free. */
bool shutdownRequested();

/** Programmatic equivalent of a shutdown signal (tests use this;
 *  works with or without installed handlers). */
void requestShutdown();

/** Reset the flag (tests only; real processes exit instead). */
void resetShutdownForTests();

} // namespace penelope

#endif // PENELOPE_COMMON_SHUTDOWN_HH
