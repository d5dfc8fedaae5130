// Crash-safe cell journal: the durability substrate under resumable
// experiment runs.
//
// A CellJournal is an opt-in append-only on-disk log of *completed*
// experiment cells. Every terminal cell the pipeline produces (ok,
// failed, skipped, quality-held, budget-exceeded) is appended as one
// framed record — content key, seed, CellStatus, DataQualityReport, and
// the full ObservationTable in bit-exact little-endian binary — and
// flushed before run_experiment moves on. Kill the process at any moment
// and the journal holds every cell that finished; re-run the same spec
// with the same JournalOptions and those cells are replayed from disk
// while only the missing ones are recomputed. Because cells are pure in
// (config, seed) and estimates are recomputed from the cells, the
// resumed report — cells AND estimates — is bit-identical to an
// uninterrupted run at any thread count.
//
// File format (<dir>/cells.xpj), following the trace/ codec idioms
// (magic, version refusal, errors naming the record and field):
//
//   "XPCJ"  u32 version            <- header, written once at creation
//   [ u32 payload_size  u64 fnv1a64(payload)  payload ]*   <- records
//
// Torn tails — the crash artifact — are *recovered*: a record whose
// frame runs past end-of-file is dropped and the file is truncated back
// to the last complete record. Mid-record corruption is *refused*: a
// complete frame whose checksum does not match throws, naming the record
// index (a journal that lies is worse than no journal).
//
// Staleness is impossible by construction: every record is keyed by a
// content key hashing (journal schema version, scenario key, tuning
// fingerprint, quality/failure knobs, allocation, per-cell seed), so a
// journal written under a different spec simply never matches — stale
// cells are recomputed, not replayed. Estimators are deliberately NOT
// part of the key: adding one to the spec re-analyzes every journaled
// world without re-simulating it (the cell cache ROADMAP open item #5
// needs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/experiment_data.h"

namespace xp::lab {

struct ExperimentSpec;  // lab/experiment.h

/// Journal record-layout version. Opening a journal written under another
/// version is refused, so bump it only when the record layout changes. A
/// change to the content-key recipe (journal_fingerprint) needs no bump:
/// it changes every key, so old cells miss and are recomputed.
inline constexpr std::uint32_t kJournalVersion = 2;

/// FNV-1a offset basis: the hash of zero bytes.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// FNV-1a-64 of `size` bytes — the journal's frame checksum and content
/// key hash. Pass an earlier result as `hash` to extend it: hashing two
/// buffers in sequence equals hashing their concatenation.
std::uint64_t fnv1a64(const char* data, std::size_t size,
                      std::uint64_t hash = kFnv1a64Basis) noexcept;

/// The journal file a directory holds (one per directory).
std::string journal_path(const std::string& directory);

/// Hash of everything about a spec that changes what a cell *computes*
/// (scenario, tuning, quality gate, failure policy, schema version) —
/// the spec-level half of the content key. Allocation list, replicate
/// count, estimators, and analysis options are excluded: the first two
/// are per-cell (allocation, seed), the last two only consume cells.
std::uint64_t journal_fingerprint(const ExperimentSpec& spec);

/// The full per-cell content key: spec fingerprint + this cell's
/// allocation (by bit pattern) and derived seed.
std::uint64_t journal_cell_key(std::uint64_t fingerprint, double allocation,
                               std::uint64_t seed) noexcept;

/// One open journal file: replays every complete record at construction,
/// then appends new cells durably (each append is flushed to the OS
/// before returning). Thread-safe for concurrent appends from
/// parallel_for bodies; the replayed map is immutable after construction
/// so find() needs no lock.
class CellJournal {
 public:
  /// Opens (or creates) <directory>/cells.xpj. Creates the directory if
  /// missing. Throws std::invalid_argument on a foreign or corrupt file
  /// (bad magic, version mismatch, checksum mismatch — naming the path
  /// and record), std::runtime_error on I/O failure. A torn tail is
  /// truncated, not an error.
  explicit CellJournal(std::string path);
  ~CellJournal();

  CellJournal(const CellJournal&) = delete;
  CellJournal& operator=(const CellJournal&) = delete;

  /// The journaled cell under `key`, or nullptr. The allocation and seed
  /// are re-checked against the record (hash-collision paranoia): a key
  /// match with different coordinates is treated as a miss.
  const core::ExperimentCell* find(std::uint64_t key, double allocation,
                                   std::uint64_t seed) const noexcept;

  /// Durably append one terminal cell (thread-safe, flushed).
  void append(std::uint64_t key, const core::ExperimentCell& cell);

  /// Complete records replayed at open (all specs, duplicates counted).
  std::size_t records() const noexcept;
  /// Bytes of torn tail dropped at open (0 for a clean file).
  std::uint64_t truncated_bytes() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xp::lab
