#include "snapshot/snapshot.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <span>
#include <type_traits>
#include <vector>

#include "snapshot/format.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ptrider::snapshot {
namespace {

// Guard the record layouts the format assumes. If any of these fire the
// structs changed shape and kFormatVersion must be bumped alongside.
static_assert(sizeof(size_t) == 8, "snapshot format assumes 64-bit size_t");
static_assert(sizeof(roadnet::Edge) == 16);
static_assert(sizeof(roadnet::CHIndex::Edge) == 24);
static_assert(sizeof(roadnet::CellNeighbor) == 16);
static_assert(sizeof(util::Point) == 16);

// How a section's bytes are produced. Records with internal padding
// (an int32 followed by a double) would otherwise leak whatever the
// heap held in the padding bytes into the file — nondeterministic
// output and checksums. Those go through a member-wise copy into
// zeroed storage; padding-free records stream as raw bytes.
enum class PayloadKind {
  kRaw,
  kGraphEdge,
  kCHEdge,
  kCellNeighbor,
};

struct SectionSpec {
  uint32_t id;
  const void* data;
  uint64_t bytes;
  PayloadKind kind;
};

void CopyGraphEdge(unsigned char* dst, const roadnet::Edge& e) {
  std::memcpy(dst + offsetof(roadnet::Edge, to), &e.to, sizeof(e.to));
  std::memcpy(dst + offsetof(roadnet::Edge, weight), &e.weight,
              sizeof(e.weight));
}

void CopyCHEdge(unsigned char* dst, const roadnet::CHIndex::Edge& e) {
  std::memcpy(dst + offsetof(roadnet::CHIndex::Edge, other), &e.other,
              sizeof(e.other));
  std::memcpy(dst + offsetof(roadnet::CHIndex::Edge, weight), &e.weight,
              sizeof(e.weight));
  std::memcpy(dst + offsetof(roadnet::CHIndex::Edge, middle), &e.middle,
              sizeof(e.middle));
}

void CopyCellNeighbor(unsigned char* dst, const roadnet::CellNeighbor& c) {
  std::memcpy(dst + offsetof(roadnet::CellNeighbor, cell), &c.cell,
              sizeof(c.cell));
  std::memcpy(dst + offsetof(roadnet::CellNeighbor, lower_bound),
              &c.lower_bound, sizeof(c.lower_bound));
}

template <typename T, typename CopyFn>
void WriteSanitized(std::ofstream& out, const void* data, uint64_t bytes,
                    CopyFn copy) {
  const T* elems = static_cast<const T*>(data);
  const size_t count = bytes / sizeof(T);
  constexpr size_t kChunkElems = 4096;
  std::vector<unsigned char> buf(
      std::min<size_t>(std::max<size_t>(count, 1), kChunkElems) *
      sizeof(T));
  size_t done = 0;
  while (done < count) {
    const size_t n = std::min(count - done, kChunkElems);
    std::memset(buf.data(), 0, n * sizeof(T));
    for (size_t i = 0; i < n; ++i) {
      copy(buf.data() + i * sizeof(T), elems[done + i]);
    }
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(n * sizeof(T)));
    done += n;
  }
}

void WritePayload(std::ofstream& out, const SectionSpec& s) {
  if (s.bytes == 0) return;
  switch (s.kind) {
    case PayloadKind::kRaw:
      out.write(static_cast<const char*>(s.data),
                static_cast<std::streamsize>(s.bytes));
      break;
    case PayloadKind::kGraphEdge:
      WriteSanitized<roadnet::Edge>(out, s.data, s.bytes, CopyGraphEdge);
      break;
    case PayloadKind::kCHEdge:
      WriteSanitized<roadnet::CHIndex::Edge>(out, s.data, s.bytes,
                                             CopyCHEdge);
      break;
    case PayloadKind::kCellNeighbor:
      WriteSanitized<roadnet::CellNeighbor>(out, s.data, s.bytes,
                                            CopyCellNeighbor);
      break;
  }
}

const SectionEntry* FindSection(std::span<const SectionEntry> table,
                                uint32_t id) {
  for (const SectionEntry& e : table) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

template <typename T>
util::Result<util::ArrayRef<T>> SectionView(
    const unsigned char* base, std::span<const SectionEntry> table,
    uint32_t id) {
  const SectionEntry* e = FindSection(table, id);
  if (e == nullptr) {
    return util::Status::IoError(
        util::StrFormat("snapshot missing section %u", id));
  }
  if (e->size % sizeof(T) != 0) {
    return util::Status::IoError(util::StrFormat(
        "section %u: %llu bytes is not a whole number of %zu-byte "
        "records",
        id, static_cast<unsigned long long>(e->size), sizeof(T)));
  }
  return util::ArrayRef<T>::View(
      reinterpret_cast<const T*>(base + e->offset), e->size / sizeof(T));
}

util::Status ValidateOffsets(const util::ArrayRef<size_t>& offsets,
                             size_t expected_rows, size_t data_size,
                             const char* name) {
  if (offsets.size() != expected_rows + 1) {
    return util::Status::IoError(util::StrFormat(
        "snapshot %s: %zu offsets for %zu rows", name, offsets.size(),
        expected_rows));
  }
  if (offsets[0] != 0 || offsets[expected_rows] != data_size) {
    return util::Status::IoError(
        util::StrFormat("snapshot %s: offsets do not span the data "
                        "array",
                        name));
  }
  for (size_t i = 1; i <= expected_rows; ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return util::Status::IoError(util::StrFormat(
          "snapshot %s: offsets not monotone at row %zu", name, i));
    }
  }
  return util::Status::Ok();
}

}  // namespace

util::Status WriteSnapshot(const roadnet::RoadNetwork& graph,
                           const roadnet::GridIndex& grid,
                           const roadnet::CHIndex& ch,
                           const std::string& path) {
  if (&grid.graph() != &graph) {
    return util::Status::InvalidArgument(
        "grid index was not built over the given graph");
  }
  if (ch.NumVertices() != graph.NumVertices()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "CH index covers %zu vertices, graph has %zu", ch.NumVertices(),
        graph.NumVertices()));
  }

  const auto [g_offsets, g_edges, g_coords, g_bounds, g_geo] =
      SnapshotAccess::GraphFields(graph);
  const auto [gi_cell_of_vertex, gi_cv_offsets, gi_cv_data, gi_bv_offsets,
              gi_bv_data, gi_vertex_min, gi_lb_matrix, gi_sc_offsets,
              gi_sc_data] = SnapshotAccess::GridArrays(grid);
  const auto [gi_graph, gi_options, gi_cell_width, gi_cell_height,
              gi_stats] = SnapshotAccess::GridScalars(grid);
  const auto [ch_rank, ch_up_offsets, ch_down_offsets, ch_up_edges,
              ch_down_edges, ch_num_shortcuts, ch_build_seconds] =
      SnapshotAccess::CHFields(ch);
  (void)gi_graph;

  MetaSection meta;
  std::memset(&meta, 0, sizeof(meta));
  meta.num_vertices = graph.NumVertices();
  meta.num_edges = graph.NumEdges();
  meta.bounds_min_x = g_bounds.min_x;
  meta.bounds_min_y = g_bounds.min_y;
  meta.bounds_max_x = g_bounds.max_x;
  meta.bounds_max_y = g_bounds.max_y;
  meta.geo_lb_valid = g_geo ? 1 : 0;
  meta.grid_cells_x = gi_options.cells_x;
  meta.grid_cells_y = gi_options.cells_y;
  meta.grid_cell_width = gi_cell_width;
  meta.grid_cell_height = gi_cell_height;
  meta.grid_build_seconds = gi_stats.build_seconds;
  meta.grid_border_vertex_count = gi_stats.border_vertex_count;
  meta.grid_non_empty_cells = gi_stats.non_empty_cells;
  meta.grid_approx_memory_bytes = gi_stats.approx_memory_bytes;
  meta.ch_num_shortcuts = ch_num_shortcuts;
  meta.ch_build_seconds = ch_build_seconds;

  std::vector<SectionSpec> sections;
  const auto add = [&sections](uint32_t id, const auto& array,
                               PayloadKind kind) {
    using T = std::remove_cvref_t<decltype(*array.data())>;
    sections.push_back({id, array.data(), array.size() * sizeof(T), kind});
  };
  sections.push_back(
      {kSectionMeta, &meta, sizeof(meta), PayloadKind::kRaw});
  add(kSectionGraphOffsets, g_offsets, PayloadKind::kRaw);
  add(kSectionGraphEdges, g_edges, PayloadKind::kGraphEdge);
  add(kSectionGraphCoords, g_coords, PayloadKind::kRaw);
  add(kSectionGridCellOfVertex, gi_cell_of_vertex, PayloadKind::kRaw);
  add(kSectionGridCvOffsets, gi_cv_offsets, PayloadKind::kRaw);
  add(kSectionGridCvData, gi_cv_data, PayloadKind::kRaw);
  add(kSectionGridBvOffsets, gi_bv_offsets, PayloadKind::kRaw);
  add(kSectionGridBvData, gi_bv_data, PayloadKind::kRaw);
  add(kSectionGridVertexMin, gi_vertex_min, PayloadKind::kRaw);
  add(kSectionGridLbMatrix, gi_lb_matrix, PayloadKind::kRaw);
  add(kSectionGridScOffsets, gi_sc_offsets, PayloadKind::kRaw);
  add(kSectionGridScData, gi_sc_data, PayloadKind::kCellNeighbor);
  add(kSectionChRank, ch_rank, PayloadKind::kRaw);
  add(kSectionChUpOffsets, ch_up_offsets, PayloadKind::kRaw);
  add(kSectionChDownOffsets, ch_down_offsets, PayloadKind::kRaw);
  add(kSectionChUpEdges, ch_up_edges, PayloadKind::kCHEdge);
  add(kSectionChDownEdges, ch_down_edges, PayloadKind::kCHEdge);

  // Lay the sections out back to back, 8-aligned.
  std::vector<SectionEntry> table(sections.size());
  uint64_t cursor =
      sizeof(FileHeader) + sections.size() * sizeof(SectionEntry);
  for (size_t i = 0; i < sections.size(); ++i) {
    cursor = AlignUp8(cursor);
    table[i] = {sections[i].id, 0, cursor, sections[i].bytes};
    cursor += sections[i].bytes;
  }
  const uint64_t file_size = AlignUp8(cursor);

  FileHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.endian = kEndianMarker;
  header.version = kFormatVersion;
  header.file_size = file_size;
  header.checksum = 0;  // patched below, once the payload bytes exist
  header.header_size = sizeof(FileHeader);
  header.section_count = static_cast<uint32_t>(sections.size());
  header.sizeof_size_t = sizeof(size_t);
  header.sizeof_graph_edge = sizeof(roadnet::Edge);
  header.sizeof_ch_edge = sizeof(roadnet::CHIndex::Edge);
  header.sizeof_cell_neighbor = sizeof(roadnet::CellNeighbor);
  header.sizeof_point = sizeof(util::Point);

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return util::Status::IoError(
          util::StrFormat("cannot open '%s' for writing", path.c_str()));
    }
    const char kZeros[8] = {};
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(table.data()),
              static_cast<std::streamsize>(table.size() *
                                           sizeof(SectionEntry)));
    uint64_t pos =
        sizeof(FileHeader) + table.size() * sizeof(SectionEntry);
    for (size_t i = 0; i < sections.size(); ++i) {
      const uint64_t pad = table[i].offset - pos;
      out.write(kZeros, static_cast<std::streamsize>(pad));
      WritePayload(out, sections[i]);
      pos = table[i].offset + sections[i].bytes;
    }
    out.write(kZeros, static_cast<std::streamsize>(file_size - pos));
    out.flush();
    if (!out) {
      return util::Status::IoError(
          util::StrFormat("write to '%s' failed", path.c_str()));
    }
  }

  // Checksum pass over the bytes exactly as a loader will see them
  // (pages are still hot in the cache), then patch the header field —
  // which the checksum deliberately does not cover.
  uint64_t checksum = 0;
  {
    PTRIDER_ASSIGN_OR_RETURN(MmapFile mapping,
                             MmapFile::OpenReadOnly(path));
    if (mapping.size() != file_size) {
      return util::Status::IoError(util::StrFormat(
          "short write to '%s': %zu of %llu bytes", path.c_str(),
          mapping.size(), static_cast<unsigned long long>(file_size)));
    }
    checksum = HashBytes(mapping.data() + sizeof(FileHeader),
                         file_size - sizeof(FileHeader));
  }
  std::fstream patch(path,
                     std::ios::binary | std::ios::in | std::ios::out);
  patch.seekp(offsetof(FileHeader, checksum));
  patch.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  patch.flush();
  if (!patch) {
    return util::Status::IoError(
        util::StrFormat("patching checksum into '%s' failed",
                        path.c_str()));
  }
  return util::Status::Ok();
}

util::Result<Snapshot> Snapshot::Load(const std::string& path) {
  util::WallTimer timer;
  PTRIDER_ASSIGN_OR_RETURN(MmapFile mapping,
                           MmapFile::OpenReadOnly(path));
  if (mapping.size() < sizeof(FileHeader)) {
    return util::Status::IoError(util::StrFormat(
        "'%s': %zu bytes is smaller than a snapshot header",
        path.c_str(), mapping.size()));
  }
  const unsigned char* base = mapping.data();
  FileHeader header;
  std::memcpy(&header, base, sizeof(header));

  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument(
        util::StrFormat("'%s' is not a PTRider snapshot", path.c_str()));
  }
  if (header.endian != kEndianMarker) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "'%s' was written on a machine with different endianness",
        path.c_str()));
  }
  if (header.version != kFormatVersion) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "'%s' is snapshot format version %u; this build reads version "
        "%u — rebuild the snapshot",
        path.c_str(), header.version, kFormatVersion));
  }
  if (header.header_size != sizeof(FileHeader) ||
      header.sizeof_size_t != sizeof(size_t) ||
      header.sizeof_graph_edge != sizeof(roadnet::Edge) ||
      header.sizeof_ch_edge != sizeof(roadnet::CHIndex::Edge) ||
      header.sizeof_cell_neighbor != sizeof(roadnet::CellNeighbor) ||
      header.sizeof_point != sizeof(util::Point)) {
    return util::Status::FailedPrecondition(util::StrFormat(
        "'%s' was written with different record layouts (ABI mismatch)",
        path.c_str()));
  }
  if (header.file_size != mapping.size()) {
    return util::Status::IoError(util::StrFormat(
        "'%s' is truncated: header declares %llu bytes, file has %zu",
        path.c_str(),
        static_cast<unsigned long long>(header.file_size),
        mapping.size()));
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (sizeof(FileHeader) + table_bytes > header.file_size) {
    return util::Status::IoError(util::StrFormat(
        "'%s': section table exceeds the file", path.c_str()));
  }
  const uint64_t checksum =
      HashBytes(base + sizeof(FileHeader),
                header.file_size - sizeof(FileHeader));
  if (checksum != header.checksum) {
    return util::Status::IoError(util::StrFormat(
        "'%s': checksum mismatch — the snapshot is corrupted",
        path.c_str()));
  }

  const std::span<const SectionEntry> table{
      reinterpret_cast<const SectionEntry*>(base + sizeof(FileHeader)),
      header.section_count};
  for (const SectionEntry& e : table) {
    if (e.offset % 8 != 0 || e.offset > header.file_size ||
        e.size > header.file_size - e.offset) {
      return util::Status::IoError(util::StrFormat(
          "'%s': section %u extends past the file", path.c_str(), e.id));
    }
  }

  const SectionEntry* meta_entry = FindSection(table, kSectionMeta);
  if (meta_entry == nullptr || meta_entry->size != sizeof(MetaSection)) {
    return util::Status::IoError(
        util::StrFormat("'%s': missing or malformed meta section",
                        path.c_str()));
  }
  MetaSection meta;
  std::memcpy(&meta, base + meta_entry->offset, sizeof(meta));
  const size_t n = meta.num_vertices;
  const size_t m = meta.num_edges;
  if (n == 0 || meta.grid_cells_x < 1 || meta.grid_cells_y < 1) {
    return util::Status::IoError(util::StrFormat(
        "'%s': implausible metadata (%zu vertices, %dx%d grid)",
        path.c_str(), n, meta.grid_cells_x, meta.grid_cells_y));
  }
  const size_t cells = static_cast<size_t>(meta.grid_cells_x) *
                       static_cast<size_t>(meta.grid_cells_y);

  auto state = std::make_shared<State>();

  // --- RoadNetwork ---------------------------------------------------------
  {
    auto [offsets, edges, coords, bounds, geo] =
        SnapshotAccess::GraphFields(state->graph);
    PTRIDER_ASSIGN_OR_RETURN(
        offsets, SectionView<size_t>(base, table, kSectionGraphOffsets));
    PTRIDER_ASSIGN_OR_RETURN(
        edges,
        SectionView<roadnet::Edge>(base, table, kSectionGraphEdges));
    PTRIDER_ASSIGN_OR_RETURN(
        coords,
        SectionView<util::Point>(base, table, kSectionGraphCoords));
    if (coords.size() != n || edges.size() != m) {
      return util::Status::IoError(util::StrFormat(
          "'%s': graph arrays disagree with metadata", path.c_str()));
    }
    PTRIDER_RETURN_IF_ERROR(
        ValidateOffsets(offsets, n, m, "graph offsets"));
    bounds.min_x = meta.bounds_min_x;
    bounds.min_y = meta.bounds_min_y;
    bounds.max_x = meta.bounds_max_x;
    bounds.max_y = meta.bounds_max_y;
    geo = meta.geo_lb_valid != 0;
  }

  // --- GridIndex -----------------------------------------------------------
  {
    auto [cell_of_vertex, cv_offsets, cv_data, bv_offsets, bv_data,
          vertex_min, lb_matrix, sc_offsets, sc_data] =
        SnapshotAccess::GridArrays(state->grid);
    PTRIDER_ASSIGN_OR_RETURN(
        cell_of_vertex,
        SectionView<roadnet::CellId>(base, table,
                                     kSectionGridCellOfVertex));
    PTRIDER_ASSIGN_OR_RETURN(
        cv_offsets,
        SectionView<size_t>(base, table, kSectionGridCvOffsets));
    PTRIDER_ASSIGN_OR_RETURN(
        cv_data,
        SectionView<roadnet::VertexId>(base, table, kSectionGridCvData));
    PTRIDER_ASSIGN_OR_RETURN(
        bv_offsets,
        SectionView<size_t>(base, table, kSectionGridBvOffsets));
    PTRIDER_ASSIGN_OR_RETURN(
        bv_data,
        SectionView<roadnet::VertexId>(base, table, kSectionGridBvData));
    PTRIDER_ASSIGN_OR_RETURN(
        vertex_min,
        SectionView<roadnet::Weight>(base, table, kSectionGridVertexMin));
    PTRIDER_ASSIGN_OR_RETURN(
        lb_matrix,
        SectionView<roadnet::Weight>(base, table, kSectionGridLbMatrix));
    PTRIDER_ASSIGN_OR_RETURN(
        sc_offsets,
        SectionView<size_t>(base, table, kSectionGridScOffsets));
    PTRIDER_ASSIGN_OR_RETURN(
        sc_data, SectionView<roadnet::CellNeighbor>(base, table,
                                                    kSectionGridScData));
    if (cell_of_vertex.size() != n || vertex_min.size() != n ||
        lb_matrix.size() != cells * cells) {
      return util::Status::IoError(util::StrFormat(
          "'%s': grid arrays disagree with metadata", path.c_str()));
    }
    PTRIDER_RETURN_IF_ERROR(ValidateOffsets(cv_offsets, cells,
                                            cv_data.size(),
                                            "grid vertex lists"));
    PTRIDER_RETURN_IF_ERROR(ValidateOffsets(bv_offsets, cells,
                                            bv_data.size(),
                                            "grid border lists"));
    PTRIDER_RETURN_IF_ERROR(ValidateOffsets(sc_offsets, cells,
                                            sc_data.size(),
                                            "grid sorted cell lists"));

    auto [grid_graph, grid_options, cell_width, cell_height,
          build_stats] = SnapshotAccess::GridScalars(state->grid);
    grid_graph = &state->graph;
    grid_options.cells_x = meta.grid_cells_x;
    grid_options.cells_y = meta.grid_cells_y;
    cell_width = meta.grid_cell_width;
    cell_height = meta.grid_cell_height;
    build_stats.build_seconds = meta.grid_build_seconds;
    build_stats.border_vertex_count = meta.grid_border_vertex_count;
    build_stats.non_empty_cells = meta.grid_non_empty_cells;
    build_stats.approx_memory_bytes = meta.grid_approx_memory_bytes;
  }

  // --- CHIndex -------------------------------------------------------------
  {
    auto [rank, up_offsets, down_offsets, up_edges, down_edges,
          num_shortcuts, build_seconds] =
        SnapshotAccess::CHFields(state->ch);
    PTRIDER_ASSIGN_OR_RETURN(
        rank, SectionView<uint32_t>(base, table, kSectionChRank));
    PTRIDER_ASSIGN_OR_RETURN(
        up_offsets,
        SectionView<size_t>(base, table, kSectionChUpOffsets));
    PTRIDER_ASSIGN_OR_RETURN(
        down_offsets,
        SectionView<size_t>(base, table, kSectionChDownOffsets));
    PTRIDER_ASSIGN_OR_RETURN(
        up_edges, SectionView<roadnet::CHIndex::Edge>(base, table,
                                                      kSectionChUpEdges));
    PTRIDER_ASSIGN_OR_RETURN(
        down_edges, SectionView<roadnet::CHIndex::Edge>(
                        base, table, kSectionChDownEdges));
    if (rank.size() != n) {
      return util::Status::IoError(util::StrFormat(
          "'%s': CH arrays disagree with metadata", path.c_str()));
    }
    PTRIDER_RETURN_IF_ERROR(ValidateOffsets(
        up_offsets, n, up_edges.size(), "CH up adjacency"));
    PTRIDER_RETURN_IF_ERROR(ValidateOffsets(
        down_offsets, n, down_edges.size(), "CH down adjacency"));
    num_shortcuts = meta.ch_num_shortcuts;
    build_seconds = meta.ch_build_seconds;
  }

  state->mapping = std::move(mapping);

  Snapshot snapshot;
  snapshot.state_ = std::move(state);
  snapshot.info_.version = header.version;
  snapshot.info_.file_bytes = header.file_size;
  snapshot.info_.num_vertices = n;
  snapshot.info_.num_edges = m;
  snapshot.info_.load_seconds = timer.ElapsedSeconds();
  return snapshot;
}

}  // namespace ptrider::snapshot
