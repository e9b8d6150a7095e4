// Filesystem primitives and the atomic-publish protocol, shared by every
// layer that persists or exchanges artifacts (dist run directories and the
// serve daemon's session journals), so both use one implementation of the
// two-step publish:
//
//   1. the payload is written to `<name>.tmp` and renamed to `<name>`;
//   2. a manifest `<name>.ok` (payload byte count + util::checksum64 under
//      the key `xxh64=`) is written the same way.  A manifest with another
//      checksum key is unparsable, hence stale — never mis-verified.
//
// A reader polls for the manifest only: once `<name>.ok` is visible the
// payload rename has already happened (same directory, program order), so a
// visible manifest whose payload is missing or does not match the declared
// size/checksum is *stale* — evidence of a torn publish or an unrelated
// file — and is reported as such rather than retried forever.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace critter::core {

bool file_exists(const std::string& path);
std::string read_file(const std::string& path);
/// Plain (non-atomic) write; for artifacts produced before any reader
/// exists, e.g. a run manifest written before workers launch.
void write_file(const std::string& path, const std::string& content);
/// Atomic single-file write (tmp + rename, no manifest): readers see the
/// old content or the new, never a torn mix.  For frequently rewritten
/// best-effort artifacts like heartbeat files, where the two-step publish
/// protocol's manifest would double the write traffic for no benefit (a
/// heartbeat's value is that it *changed*, not what it says).
void write_file_atomic(const std::string& path, const std::string& content);
/// Append to the end of `path`, creating it if absent.  The increment-log
/// primitive: an interrupted append can tear only the new tail, which the
/// framed-record scan rejects — the existing prefix stays trustworthy.
/// Returns once the bytes reach the page cache (nothing here syncs), so an
/// appended record survives the death of its process (kill -9) but not a
/// host crash or power loss.
void append_file(const std::string& path, const std::string& content);
/// mkdir, existing directory OK; parents must exist.
void make_dir(const std::string& path);
/// Immediate children of `path` (files and directories), sorted by name —
/// deterministic scan order for resume code.  Empty for a missing path.
std::vector<std::string> list_dir(const std::string& path);
/// Fresh private directory under $TMPDIR (default /tmp).
std::string make_temp_dir(const std::string& prefix);
/// Best-effort recursive removal (shallow directory trees); never throws.
void remove_dir_tree(const std::string& path);

/// Render the publish manifest for a payload (the size/checksum stamp readers
/// verify).  One implementation, so every writer and reader agrees
/// byte-for-byte on what "published" means.
std::string publish_manifest(const std::string& payload);
/// Verify `payload` against a manifest produced by publish_manifest();
/// throws with a "stale manifest" message naming `what` on any mismatch.
void check_publish_manifest(const std::string& manifest,
                            const std::string& payload,
                            const std::string& what);

/// Atomically publish `payload` as `dir/name` (tmp + rename + manifest).
void publish_file(const std::string& dir, const std::string& name,
                  const std::string& payload);
/// True once `dir/name`'s manifest is visible.
bool published(const std::string& dir, const std::string& name);
/// Read a published payload, verifying the manifest's size and checksum.
/// Throws with "missing"/"stale manifest" in the message when the payload
/// is absent, short, or does not hash to the manifest's declared value.
std::string read_published(const std::string& dir, const std::string& name);
/// Remove `dir/name` and its manifest, manifest first (publish reversed): a
/// reader polling published() stops seeing the artifact before its payload
/// can go missing under it.  An absent file counts as already gone, so
/// unpublishing twice, or a plain file with no manifest, is fine — the
/// exchange-mailbox GC (DESIGN.md §13.2) relies on that.
void unpublish(const std::string& dir, const std::string& name);

void sleep_ms(int ms);
double monotonic_s();

}  // namespace critter::core
