#ifndef SCOTTY_STATE_DELTA_LOG_H_
#define SCOTTY_STATE_DELTA_LOG_H_

// Append-only delta-log segments for incremental checkpoints (DESIGN.md §7).
//
// Each segment rides alongside one full base snapshot and holds the
// incremental barriers taken since that base. Layout of a segment file
// `<prefix>-<base_index>.dlog`:
//
//   offset  size  field
//   0       8     magic "SCTYDLOG"
//   8       4     format version (little-endian u32)
//   12      8     base snapshot barrier index (little-endian u64)
//   20      8     FNV-1a 64 checksum of bytes [8, 20) (little-endian u64)
//   28      ...   records
//
// Each record is a length-framed snapshot container:
//
//   0       4     record magic "DREC" (little-endian u32)
//   4       8     container size in bytes (little-endian u64)
//   12      n     snapshot container (see snapshot.h) whose state bytes are
//                 the operator's *delta* payload for that barrier
//
// The inner container carries its own magic/version/size/FNV-1a64, so a
// torn or bit-flipped tail fails validation exactly like a damaged full
// snapshot does. Records must form an epoch-continuous chain: record i
// carries barrier_index == base_index + 1 + i. Reading stops at the first
// record that is torn, corrupt, or out of epoch and returns the valid
// prefix — recovery then replays base + prefix, which is always a
// consistent barrier boundary because every record is appended and fsync'd
// as a unit after its barrier completes.

#include <cstdint>
#include <string>
#include <vector>

#include "state/snapshot.h"

namespace scotty {
namespace state {

inline constexpr char kDeltaLogMagic[8] = {'S', 'C', 'T', 'Y',
                                           'D', 'L', 'O', 'G'};
inline constexpr uint32_t kDeltaLogFormatVersion = 1;
inline constexpr uint32_t kDeltaRecordMagic = 0x44524543;  // "DREC"

/// One validated delta record: the barrier metadata plus the operator's
/// opaque delta payload.
struct DeltaRecord {
  CheckpointMetadata meta;
  std::string operator_name;
  std::vector<uint8_t> state;
};

/// Result of reading a segment: the base it extends and the valid
/// epoch-continuous record prefix. `torn` reports whether trailing bytes
/// (a partial append, corruption, or an out-of-epoch record) were
/// discarded.
struct DeltaLogContents {
  uint64_t base_index = 0;
  std::vector<DeltaRecord> records;
  bool torn = false;
};

/// Canonical segment path for the deltas extending base `base_index`.
std::string DeltaLogPath(const std::string& prefix, uint64_t base_index);

/// The segment path beside base snapshot `snap_path`: its ".snap" suffix
/// becomes ".dlog". Empty if `snap_path` does not end in ".snap".
std::string DeltaLogPathForSnapshot(const std::string& snap_path);

/// Appends framed delta records to one segment file. The descriptor stays
/// open across appends; Sync() is the group-commit point — several appended
/// records become durable with a single fsync.
class DeltaLogWriter {
 public:
  DeltaLogWriter() = default;
  ~DeltaLogWriter() { Close(); }
  DeltaLogWriter(const DeltaLogWriter&) = delete;
  DeltaLogWriter& operator=(const DeltaLogWriter&) = delete;

  /// Creates (truncating any previous file at) `path` and writes the
  /// segment header. Returns false on I/O failure.
  bool Open(const std::string& path, uint64_t base_index);

  uint64_t base_index() const { return base_index_; }
  const std::string& path() const { return path_; }

  /// Appends one record (not yet durable; see Sync). Returns false on I/O
  /// failure, after which the segment must be considered unusable.
  bool Append(const CheckpointMetadata& meta, const std::string& operator_name,
              const std::vector<uint8_t>& delta_state);

  /// fsyncs everything appended so far. Returns false on I/O failure.
  bool Sync();

  void Close();

 private:
  int fd_ = -1;
  uint64_t base_index_ = 0;
  std::string path_;
};

/// Reads and validates a segment. Returns false if the file is missing,
/// unreadable, or its header is damaged. On success, `out->records` holds
/// the valid epoch-continuous prefix and `out->torn` reports whether any
/// tail bytes were rejected.
bool ReadDeltaLog(const std::string& path, DeltaLogContents* out);

}  // namespace state
}  // namespace scotty

#endif  // SCOTTY_STATE_DELTA_LOG_H_
