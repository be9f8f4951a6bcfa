#ifndef PTRIDER_SNAPSHOT_FORMAT_H_
#define PTRIDER_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <cstring>

namespace ptrider::snapshot {

// On-disk layout of a PTRider snapshot (DESIGN.md section 12):
//
//   FileHeader                  (56 bytes, validated field by field)
//   SectionEntry[section_count] (the section table)
//   section payloads            (each 8-byte aligned, zero-padded gaps)
//
// Section payloads are the raw in-memory arrays of RoadNetwork,
// GridIndex and CHIndex (native endianness and alignment — this is a
// same-architecture cache, not an interchange format; the header's
// endianness marker and record-size fields refuse foreign files).
// Struct padding bytes are zeroed at write time so identical inputs
// produce byte-identical files and the checksum is deterministic.

inline constexpr char kMagic[8] = {'P', 'T', 'R', 'S', 'N', 'A', 'P', '\0'};
/// Reads back as 0x04030201 on a foreign-endian machine.
inline constexpr uint32_t kEndianMarker = 0x01020304u;
/// Bump on ANY layout change — loaders never guess at older layouts.
inline constexpr uint32_t kFormatVersion = 2;

/// Section identifiers. Values are stable on disk; only append. Ids 16,
/// 17 and 19 (format 1's grid upper-bound arrays) are retired: never
/// reuse them.
enum SectionId : uint32_t {
  kSectionMeta = 1,
  // RoadNetwork CSR.
  kSectionGraphOffsets = 2,
  kSectionGraphEdges = 3,
  kSectionGraphCoords = 4,
  // GridIndex (all lists CSR; see roadnet/grid_index.h).
  kSectionGridCellOfVertex = 10,
  kSectionGridCvOffsets = 11,
  kSectionGridCvData = 12,
  kSectionGridBvOffsets = 13,
  kSectionGridBvData = 14,
  kSectionGridVertexMin = 15,
  kSectionGridLbMatrix = 18,
  kSectionGridScOffsets = 20,
  kSectionGridScData = 21,
  // CHIndex (up/down CSR + contraction order).
  kSectionChRank = 30,
  kSectionChUpOffsets = 31,
  kSectionChDownOffsets = 32,
  kSectionChUpEdges = 33,
  kSectionChDownEdges = 34,
};

struct FileHeader {
  char magic[8];
  uint32_t endian;   // kEndianMarker as written
  uint32_t version;  // kFormatVersion as written
  /// Total file size in bytes; a shorter mapping means truncation.
  uint64_t file_size;
  /// HashBytes over [header_size, file_size) — the section table and
  /// every payload byte including alignment padding.
  uint64_t checksum;
  uint32_t header_size;  // sizeof(FileHeader) as written
  uint32_t section_count;
  // ABI guards: record sizes the raw arrays assume. A compiler or
  // platform that lays these structs out differently must not view
  // this file's bytes.
  uint16_t sizeof_size_t;
  uint16_t sizeof_graph_edge;
  uint16_t sizeof_ch_edge;
  uint16_t sizeof_cell_neighbor;
  uint16_t sizeof_point;
  uint16_t reserved[3];  // zero
};
static_assert(sizeof(FileHeader) == 56, "on-disk header layout drifted");

struct SectionEntry {
  uint32_t id;        // SectionId
  uint32_t reserved;  // zero
  uint64_t offset;    // absolute byte offset, 8-aligned
  uint64_t size;      // payload bytes (excluding alignment padding)
};
static_assert(sizeof(SectionEntry) == 24, "on-disk entry layout drifted");

/// Fixed-size scalar state of all three structures (section kMeta).
/// Laid out so every field is naturally aligned — no padding bytes.
struct MetaSection {
  uint64_t num_vertices;
  uint64_t num_edges;
  // RoadNetwork scalars.
  double bounds_min_x;
  double bounds_min_y;
  double bounds_max_x;
  double bounds_max_y;
  uint32_t geo_lb_valid;  // 0 / 1
  // GridIndex scalars.
  int32_t grid_cells_x;
  int32_t grid_cells_y;
  uint32_t reserved;  // zero
  double grid_cell_width;
  double grid_cell_height;
  double grid_build_seconds;
  uint64_t grid_border_vertex_count;
  uint64_t grid_non_empty_cells;
  uint64_t grid_approx_memory_bytes;
  // CHIndex scalars.
  uint64_t ch_num_shortcuts;
  double ch_build_seconds;
};
static_assert(sizeof(MetaSection) == 128, "on-disk meta layout drifted");

/// Corruption check for multi-megabyte payloads: FNV-1a folded over
/// 8-byte words (one multiply per word instead of per byte — the
/// difference between "noise" and "half the load budget" at a 40 MB
/// snapshot). The sub-word tail is zero-extended into a final word.
/// Chained calls over 8-byte-multiple chunks equal one whole-range call.
inline uint64_t HashBytes(const void* data, size_t size,
                          uint64_t seed = 14695981039346656037ull) {
  constexpr uint64_t kPrime = 1099511628211ull;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * kPrime;
  }
  if (i < size) {
    uint64_t word = 0;
    std::memcpy(&word, p + i, size - i);
    h = (h ^ word) * kPrime;
  }
  return h;
}

inline uint64_t AlignUp8(uint64_t n) { return (n + 7) & ~uint64_t{7}; }

}  // namespace ptrider::snapshot

#endif  // PTRIDER_SNAPSHOT_FORMAT_H_
