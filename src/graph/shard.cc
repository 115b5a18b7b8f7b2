#include "graph/shard.h"

#include "common/binary_io.h"
#include "graph/delta.h"

namespace grimp {

namespace {
constexpr uint64_t kShardMagic = 0x4752494d50534844ULL;  // "GRIMPSHD"
constexpr uint32_t kShardVersion = 1;
}  // namespace

GraphShard GraphShard::View(const HeteroGraph& graph) {
  GraphShard shard;
  shard.begin_ = 0;
  shard.end_ = graph.num_nodes();
  shard.slices_.reserve(static_cast<size_t>(graph.num_edge_types()));
  for (int t = 0; t < graph.num_edge_types(); ++t) {
    const CsrAdjacency& adj = graph.adjacency(t);
    GRIMP_CHECK_EQ(adj.num_nodes(), graph.num_nodes());
    TypeSlice s;
    s.offsets = adj.offsets().data();
    s.indices = adj.indices().data();
    s.edge_base = 0;
    shard.slices_.push_back(s);
  }
  return shard;
}

GraphShard GraphShard::Slice(const HeteroGraph& graph, int64_t begin,
                             int64_t end) {
  GRIMP_CHECK(begin >= 0 && begin <= end && end <= graph.num_nodes());
  GraphShard shard;
  shard.begin_ = begin;
  shard.end_ = end;
  shard.owned_.reserve(static_cast<size_t>(graph.num_edge_types()) * 2);
  for (int t = 0; t < graph.num_edge_types(); ++t) {
    const CsrAdjacency& adj = graph.adjacency(t);
    const auto& off = adj.offsets();
    const auto& idx = adj.indices();
    std::vector<int32_t> offsets(off.begin() + begin,
                                 off.begin() + end + 1);
    std::vector<int32_t> indices(idx.begin() + offsets.front(),
                                 idx.begin() + offsets.back());
    shard.owned_.push_back(std::move(offsets));
    shard.owned_.push_back(std::move(indices));
  }
  shard.RebindOwned();
  return shard;
}

GraphShard GraphShard::Merged(
    int64_t begin, int64_t end, const GraphShard* base, int num_types,
    const std::vector<std::vector<std::pair<int32_t, int32_t>>>& runs) {
  GRIMP_CHECK(begin >= 0 && begin <= end);
  GRIMP_CHECK_EQ(static_cast<int64_t>(runs.size()),
                 static_cast<int64_t>(num_types));
  GraphShard shard;
  shard.begin_ = begin;
  shard.end_ = end;
  shard.owned_.resize(static_cast<size_t>(num_types) * 2);
  const TypeSlice no_base;
  for (int t = 0; t < num_types; ++t) {
    const size_t i = static_cast<size_t>(t);
    const TypeSlice& s = base != nullptr ? base->slices_[i] : no_base;
    MergeSortedRuns(begin, end, s.offsets, s.indices,
                    base != nullptr ? end - begin : 0, runs[i],
                    &shard.owned_[2 * i], &shard.owned_[2 * i + 1]);
  }
  shard.RebindOwned();
  return shard;
}

GraphShard GraphShard::FromSortedEdges(
    int64_t begin, int64_t end, int num_types,
    const std::vector<std::vector<std::pair<int32_t, int32_t>>>& edges) {
  return Merged(begin, end, nullptr, num_types, edges);
}

GraphShard GraphShard::Patched(
    const GraphShard& base,
    const std::vector<std::vector<std::pair<int32_t, int32_t>>>& extra) {
  return Merged(base.begin_, base.end_, &base, base.num_edge_types(), extra);
}

void GraphShard::RebindOwned() {
  const size_t num_types = owned_.size() / 2;
  slices_.clear();
  slices_.reserve(num_types);
  for (size_t t = 0; t < num_types; ++t) {
    const std::vector<int32_t>& offsets = owned_[2 * t];
    const std::vector<int32_t>& indices = owned_[2 * t + 1];
    GRIMP_CHECK_EQ(static_cast<int64_t>(offsets.size()), end_ - begin_ + 1);
    TypeSlice s;
    s.offsets = offsets.data();
    s.indices = indices.data();
    s.edge_base = offsets.front();
    slices_.push_back(s);
  }
}

int64_t GraphShard::num_edges() const {
  int64_t total = 0;
  for (const TypeSlice& s : slices_) {
    total += s.offsets[static_cast<size_t>(end_ - begin_)] - s.edge_base;
  }
  return total;
}

int64_t GraphShard::SizeBytes() const {
  const int64_t offsets_bytes =
      static_cast<int64_t>(slices_.size()) * (end_ - begin_ + 1) *
      static_cast<int64_t>(sizeof(int32_t));
  return offsets_bytes + num_edges() * static_cast<int64_t>(sizeof(int32_t));
}

Status GraphShard::WriteTo(const std::string& path) const {
  BinaryWriter writer(path);
  if (!writer.ok()) return Status::IoError("cannot open " + path);
  writer.WriteU64(kShardMagic);
  writer.WriteU32(kShardVersion);
  writer.WriteI64(begin_);
  writer.WriteI64(end_);
  writer.WriteU32(static_cast<uint32_t>(slices_.size()));
  const int64_t n = end_ - begin_;
  std::vector<int32_t> scratch;
  for (const TypeSlice& s : slices_) {
    scratch.assign(s.offsets, s.offsets + n + 1);
    writer.WriteI32Vector(scratch);
    const int32_t num_edges = s.offsets[static_cast<size_t>(n)] -
                              s.edge_base;
    scratch.assign(s.indices, s.indices + num_edges);
    writer.WriteI32Vector(scratch);
  }
  writer.WriteU64(writer.hash());
  return writer.Close();
}

Result<GraphShard> GraphShard::ReadFrom(const std::string& path) {
  GRIMP_RETURN_IF_ERROR(VerifyTrailingChecksum(path));
  BinaryReader reader(path);
  GRIMP_RETURN_IF_ERROR(reader.status());
  GRIMP_ASSIGN_OR_RETURN(uint64_t magic, reader.ReadU64());
  if (magic != kShardMagic) {
    return Status::InvalidArgument("not a GRIMP shard file: " + path);
  }
  GRIMP_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kShardVersion) {
    return Status::InvalidArgument("unsupported shard version in " + path);
  }
  GraphShard shard;
  GRIMP_ASSIGN_OR_RETURN(shard.begin_, reader.ReadI64());
  GRIMP_ASSIGN_OR_RETURN(shard.end_, reader.ReadI64());
  if (shard.begin_ < 0 || shard.end_ < shard.begin_) {
    return Status::InvalidArgument("corrupt shard range in " + path);
  }
  GRIMP_ASSIGN_OR_RETURN(uint32_t num_types, reader.ReadU32());
  if (num_types > 65536) {
    return Status::InvalidArgument("corrupt shard type count in " + path);
  }
  shard.owned_.reserve(static_cast<size_t>(num_types) * 2);
  for (uint32_t t = 0; t < num_types; ++t) {
    GRIMP_ASSIGN_OR_RETURN(auto offsets, reader.ReadI32Vector());
    if (static_cast<int64_t>(offsets.size()) !=
        shard.end_ - shard.begin_ + 1) {
      return Status::InvalidArgument("corrupt shard offsets in " + path);
    }
    GRIMP_ASSIGN_OR_RETURN(auto indices, reader.ReadI32Vector());
    if (static_cast<int64_t>(indices.size()) !=
        static_cast<int64_t>(offsets.back()) - offsets.front()) {
      return Status::InvalidArgument("corrupt shard indices in " + path);
    }
    shard.owned_.push_back(std::move(offsets));
    shard.owned_.push_back(std::move(indices));
  }
  shard.RebindOwned();
  return shard;
}

}  // namespace grimp
