#include "h5lite/h5lite.hpp"

#include <algorithm>
#include <cstring>

namespace dedicore::h5lite {

std::size_t dtype_size(DType t) noexcept {
  switch (t) {
    case DType::kInt8: case DType::kUInt8: return 1;
    case DType::kInt16: case DType::kUInt16: return 2;
    case DType::kInt32: case DType::kUInt32: case DType::kFloat32: return 4;
    case DType::kInt64: case DType::kUInt64: case DType::kFloat64: return 8;
  }
  return 1;
}

std::string_view dtype_name(DType t) noexcept {
  switch (t) {
    case DType::kInt8: return "int8";
    case DType::kInt16: return "int16";
    case DType::kInt32: return "int32";
    case DType::kInt64: return "int64";
    case DType::kUInt8: return "uint8";
    case DType::kUInt16: return "uint16";
    case DType::kUInt32: return "uint32";
    case DType::kUInt64: return "uint64";
    case DType::kFloat32: return "float32";
    case DType::kFloat64: return "float64";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Low-level serialization helpers
// ---------------------------------------------------------------------------

namespace {

void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}
void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}
void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}
void put_f64(std::vector<std::byte>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  put_u64(out, bits);
}
void put_name(std::vector<std::byte>& out, std::string_view name) {
  DEDICORE_CHECK(name.size() <= 0xFFFF, "h5lite: name too long");
  put_u16(out, static_cast<std::uint16_t>(name.size()));
  for (char ch : name) out.push_back(static_cast<std::byte>(ch));
}
void put_attr(std::vector<std::byte>& out, std::string_view name,
              const AttrValue& value) {
  put_name(out, name);
  if (std::holds_alternative<std::int64_t>(value)) {
    put_u8(out, 0);
    put_u64(out, static_cast<std::uint64_t>(std::get<std::int64_t>(value)));
  } else if (std::holds_alternative<double>(value)) {
    put_u8(out, 1);
    put_f64(out, std::get<double>(value));
  } else {
    put_u8(out, 2);
    put_name(out, std::get<std::string>(value));
  }
}

/// Cursor-based reader with bounds checking.
class Cursor {
 public:
  Cursor(const std::vector<std::byte>& image, std::uint64_t at)
      : image_(image), at_(at) {}

  std::uint8_t u8() {
    need(1);
    return std::to_integer<std::uint8_t>(image_[at_++]);
  }
  std::uint16_t u16() {
    std::uint16_t v = 0;
    need(2);
    for (int i = 0; i < 2; ++i)
      v |= static_cast<std::uint16_t>(std::to_integer<std::uint8_t>(image_[at_ + static_cast<std::size_t>(i)])) << (8 * i);
    at_ += 2;
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    need(8);
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(image_[at_ + static_cast<std::size_t>(i)])) << (8 * i);
    at_ += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  std::string name() {
    const std::uint16_t len = u16();
    need(len);
    std::string out(len, '\0');
    std::memcpy(out.data(), image_.data() + at_, len);
    at_ += len;
    return out;
  }
  AttrValue attr_value() {
    const std::uint8_t type = u8();
    switch (type) {
      case 0: return static_cast<std::int64_t>(u64());
      case 1: return f64();
      case 2: return name();
      default: throw ConfigError("h5lite: unknown attribute type");
    }
  }

  [[nodiscard]] std::uint64_t position() const noexcept { return at_; }
  /// Bytes left between the cursor and the end of the image; used to
  /// sanity-bound table sizes *before* allocating for them.
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return at_ <= image_.size() ? image_.size() - at_ : 0;
  }

 private:
  void need(std::uint64_t n) const {
    // Subtraction form: `at_ + n` could wrap for hostile lengths.
    if (n > image_.size() || at_ > image_.size() - n)
      throw ConfigError("h5lite: truncated image");
  }
  const std::vector<std::byte>& image_;
  std::uint64_t at_;
};

std::uint64_t product(std::span<const std::uint64_t> dims) {
  std::uint64_t p = 1;
  for (auto d : dims) p *= d;
  return p;
}

/// product(dims) * elem with overflow detection — a corrupt image can
/// declare dimensions whose product wraps, making byte_size() tiny while
/// the chunk walk indexes far past the output buffer.
std::uint64_t checked_byte_size(std::span<const std::uint64_t> dims,
                                std::size_t elem) {
  std::uint64_t p = 1;
  for (auto d : dims) {
    if (d != 0 && p > UINT64_MAX / d)
      throw ConfigError("h5lite: dataset dimensions overflow");
    p *= d;
  }
  if (p > UINT64_MAX / elem)
    throw ConfigError("h5lite: dataset byte size overflows");
  return p * elem;
}

/// `offset`/`size` must describe a range inside `image` (overflow-proof).
void check_range(const std::vector<std::byte>* image, std::uint64_t offset,
                 std::uint64_t size, const char* what) {
  if (image == nullptr) return;
  if (offset > image->size() || size > image->size() - offset)
    throw ConfigError(std::string("h5lite: ") + what + " out of range");
}

}  // namespace

// ---------------------------------------------------------------------------
// FileBuilder
// ---------------------------------------------------------------------------

struct FileBuilder::DatasetRecord {
  std::string name;
  DType dtype = DType::kUInt8;
  std::vector<std::uint64_t> dims;
  std::vector<std::pair<std::string, AttrValue>> attributes;
  bool chunked = false;
  // contiguous
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  // chunked
  std::vector<std::uint64_t> chunk_dims;
  compress::CodecId codec = compress::CodecId::kNone;
  struct Chunk { std::uint64_t offset, stored, raw; };
  std::vector<Chunk> chunks;
};

struct FileBuilder::GroupRecord {
  std::string name;
  std::vector<std::pair<std::string, AttrValue>> attributes;
  std::vector<GroupId> children;
  std::vector<DatasetRecord> datasets;
};

FileBuilder::FileBuilder() {
  image_.resize(kSuperblockSize);  // patched in finalize()
  std::memcpy(image_.data(), kMagic, 8);
  groups_.push_back(std::make_unique<GroupRecord>());  // root, id 0
}

FileBuilder::~FileBuilder() = default;
FileBuilder::FileBuilder(FileBuilder&&) noexcept = default;
FileBuilder& FileBuilder::operator=(FileBuilder&&) noexcept = default;

FileBuilder::GroupRecord& FileBuilder::group(GroupId id) {
  DEDICORE_CHECK(id < groups_.size(), "h5lite: invalid group id");
  return *groups_[id];
}

void FileBuilder::check_unique(const GroupRecord& g, std::string_view name) const {
  for (GroupId c : g.children)
    if (groups_[c]->name == name)
      throw ConfigError("h5lite: duplicate name '" + std::string(name) + "' in group");
  for (const auto& d : g.datasets)
    if (d.name == name)
      throw ConfigError("h5lite: duplicate name '" + std::string(name) + "' in group");
}

FileBuilder::GroupId FileBuilder::create_group(GroupId parent, std::string_view name) {
  DEDICORE_CHECK(!finalized_, "h5lite: builder already finalized");
  GroupRecord& p = group(parent);
  check_unique(p, name);
  auto g = std::make_unique<GroupRecord>();
  g->name = std::string(name);
  const auto id = static_cast<GroupId>(groups_.size());
  groups_.push_back(std::move(g));
  p.children.push_back(id);
  return id;
}

void FileBuilder::set_attribute(GroupId id, std::string_view name, AttrValue value) {
  DEDICORE_CHECK(!finalized_, "h5lite: builder already finalized");
  group(id).attributes.emplace_back(std::string(name), std::move(value));
}

void FileBuilder::add_dataset(GroupId gid, std::string_view name, DType dtype,
                              std::span<const std::uint64_t> dims,
                              std::span<const std::byte> data) {
  DEDICORE_CHECK(!finalized_, "h5lite: builder already finalized");
  GroupRecord& g = group(gid);
  check_unique(g, name);
  if (product(dims) * dtype_size(dtype) != data.size())
    throw ConfigError("h5lite: dataset '" + std::string(name) +
                      "' data size does not match dims*dtype");
  DatasetRecord d;
  d.name = std::string(name);
  d.dtype = dtype;
  d.dims.assign(dims.begin(), dims.end());
  d.offset = image_.size();
  d.size = data.size();
  image_.insert(image_.end(), data.begin(), data.end());
  g.datasets.push_back(std::move(d));
}

void FileBuilder::add_dataset_chunked(GroupId gid, std::string_view name,
                                      DType dtype,
                                      std::span<const std::uint64_t> dims,
                                      std::span<const std::uint64_t> chunk_dims,
                                      std::span<const std::byte> data,
                                      compress::CodecId codec) {
  DEDICORE_CHECK(!finalized_, "h5lite: builder already finalized");
  if (dims.size() != chunk_dims.size() || dims.empty() || dims.size() > 8)
    throw ConfigError("h5lite: chunk rank must match dataset rank (1..8)");
  for (auto c : chunk_dims)
    if (c == 0) throw ConfigError("h5lite: zero chunk dimension");
  GroupRecord& g = group(gid);
  check_unique(g, name);
  const std::size_t elem = dtype_size(dtype);
  if (product(dims) * elem != data.size())
    throw ConfigError("h5lite: dataset '" + std::string(name) +
                      "' data size does not match dims*dtype");

  DatasetRecord d;
  d.name = std::string(name);
  d.dtype = dtype;
  d.dims.assign(dims.begin(), dims.end());
  d.chunked = true;
  d.chunk_dims.assign(chunk_dims.begin(), chunk_dims.end());
  d.codec = codec;

  const std::size_t rank = dims.size();
  // Number of chunks along each dimension.
  std::vector<std::uint64_t> grid(rank);
  for (std::size_t i = 0; i < rank; ++i)
    grid[i] = (dims[i] + chunk_dims[i] - 1) / chunk_dims[i];

  // Row-major strides of the source array, in elements.
  std::vector<std::uint64_t> stride(rank, 1);
  for (std::size_t i = rank; i-- > 1;) stride[i - 1] = stride[i] * dims[i];

  std::vector<std::uint64_t> coord(rank, 0);  // chunk coordinate
  const std::uint64_t n_chunks = product(grid);
  std::vector<std::byte> chunk_buf;
  for (std::uint64_t c = 0; c < n_chunks; ++c) {
    // A one-chunk grid is the whole array: it goes to the codec as is.
    std::span<const std::byte> chunk = data;
    if (n_chunks > 1) {
      // Extent of this chunk (edge chunks trimmed).
      std::vector<std::uint64_t> lo(rank), extent(rank);
      std::uint64_t chunk_elems = 1;
      for (std::size_t i = 0; i < rank; ++i) {
        lo[i] = coord[i] * chunk_dims[i];
        extent[i] = std::min(chunk_dims[i], dims[i] - lo[i]);
        chunk_elems *= extent[i];
      }
      chunk_buf.resize(chunk_elems * elem);

      // Copy the chunk out row by row along the innermost dimension.
      std::vector<std::uint64_t> idx(rank, 0);  // within-chunk index
      const std::uint64_t inner = extent[rank - 1];
      std::uint64_t written = 0;
      for (;;) {
        std::uint64_t src_elem = 0;
        for (std::size_t i = 0; i < rank; ++i)
          src_elem += (lo[i] + idx[i]) * stride[i];
        std::memcpy(chunk_buf.data() + written * elem,
                    data.data() + src_elem * elem, inner * elem);
        written += inner;
        // Advance idx over all but the innermost dimension.
        std::size_t dim = rank - 1;
        for (;;) {
          if (dim == 0) goto chunk_done;
          --dim;
          if (++idx[dim] < extent[dim]) break;
          idx[dim] = 0;
        }
        if (rank == 1) break;
      }
    chunk_done:;
      DEDICORE_CHECK(written == chunk_elems, "h5lite: chunk copy accounting");
      chunk = chunk_buf;
    }

    DatasetRecord::Chunk entry;
    entry.offset = image_.size();
    entry.raw = chunk.size();
    if (const compress::Codec* cc = compress::find_codec(codec)) {
      std::vector<std::byte> packed = cc->compress(chunk);
      if (packed.size() < chunk.size()) {
        entry.stored = packed.size();
        image_.insert(image_.end(), packed.begin(), packed.end());
      } else {
        entry.stored = entry.raw;  // stored == raw means "not compressed"
        image_.insert(image_.end(), chunk.begin(), chunk.end());
      }
    } else {
      entry.stored = entry.raw;
      image_.insert(image_.end(), chunk.begin(), chunk.end());
    }
    d.chunks.push_back(entry);

    // Next chunk coordinate (row-major).
    for (std::size_t i = rank; i-- > 0;) {
      if (++coord[i] < grid[i]) break;
      coord[i] = 0;
    }
  }
  g.datasets.push_back(std::move(d));
}

namespace {

void serialize_attrs(std::vector<std::byte>& out,
                     const std::vector<std::pair<std::string, AttrValue>>& attrs) {
  put_u16(out, static_cast<std::uint16_t>(attrs.size()));
  for (const auto& [name, value] : attrs) put_attr(out, name, value);
}

void serialize_dataset(std::vector<std::byte>& out,
                       const FileBuilder::DatasetRecord& d) {
  put_name(out, d.name);
  serialize_attrs(out, d.attributes);
  put_u8(out, static_cast<std::uint8_t>(d.dtype));
  put_u8(out, static_cast<std::uint8_t>(d.dims.size()));
  for (auto dim : d.dims) put_u64(out, dim);
  if (!d.chunked) {
    put_u8(out, 0);
    put_u64(out, d.offset);
    put_u64(out, d.size);
  } else {
    put_u8(out, 1);
    for (auto cd : d.chunk_dims) put_u64(out, cd);
    put_u8(out, static_cast<std::uint8_t>(d.codec));
    put_u64(out, d.chunks.size());
    for (const auto& c : d.chunks) {
      put_u64(out, c.offset);
      put_u64(out, c.stored);
      put_u64(out, c.raw);
    }
  }
}

}  // namespace

std::vector<std::byte> FileBuilder::finalize() && {
  DEDICORE_CHECK(!finalized_, "h5lite: builder already finalized");
  finalized_ = true;

  const std::uint64_t root_offset = image_.size();

  // Recursive group serialization.
  auto serialize_group = [&](auto&& self, GroupId id) -> void {
    const GroupRecord& g = *groups_[id];
    put_name(image_, g.name);
    serialize_attrs(image_, g.attributes);
    put_u16(image_, static_cast<std::uint16_t>(g.datasets.size()));
    for (const auto& d : g.datasets) serialize_dataset(image_, d);
    put_u16(image_, static_cast<std::uint16_t>(g.children.size()));
    for (GroupId c : g.children) self(self, c);
  };
  serialize_group(serialize_group, kRoot);

  // Patch superblock.
  std::vector<std::byte> head;
  put_u64(head, root_offset);
  put_u64(head, image_.size());
  std::memcpy(image_.data() + 8, head.data(), 16);
  return std::move(image_);
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

std::uint64_t Dataset::element_count() const noexcept { return product(dims); }
std::uint64_t Dataset::byte_size() const noexcept {
  return element_count() * dtype_size(dtype);
}

std::uint64_t Dataset::stored_size() const noexcept {
  if (!chunked_) return data_size_;
  std::uint64_t total = 0;
  for (const auto& c : chunks_) total += c.stored;
  return total;
}

std::vector<std::byte> Dataset::read() const {
  DEDICORE_CHECK(image_ != nullptr, "Dataset::read: detached dataset");
  if (!chunked_) {
    if (data_offset_ > image_->size() ||
        data_size_ > image_->size() - data_offset_)
      throw ConfigError("h5lite: dataset payload out of range");
    return {image_->begin() + static_cast<std::ptrdiff_t>(data_offset_),
            image_->begin() + static_cast<std::ptrdiff_t>(data_offset_ + data_size_)};
  }

  // Reassemble chunks.  This mirrors the builder's chunk walk.
  const std::size_t rank = dims.size();
  const std::size_t elem = dtype_size(dtype);
  // byte_size() was plausibility-capped at parse time; if the machine
  // still cannot materialize it, surface the parser's error type rather
  // than leaking bad_alloc through an API that promises ConfigError.
  std::vector<std::byte> out;
  try {
    out.resize(byte_size());
  } catch (const std::bad_alloc&) {
    throw ConfigError("h5lite: dataset too large to materialize");
  } catch (const std::length_error&) {
    throw ConfigError("h5lite: dataset too large to materialize");
  }

  // Recover the chunk grid from chunk dims stored on the side during parse:
  // chunk extents were not stored per chunk, so recompute from chunk_dims_.
  // chunk_dims_ travels in `chunks_meta_dims` (set by File::parse through
  // the chunked fields below).
  DEDICORE_CHECK(!chunk_dims_cache_.empty(), "h5lite: missing chunk dims");
  const auto& chunk_dims = chunk_dims_cache_;

  std::vector<std::uint64_t> grid(rank);
  for (std::size_t i = 0; i < rank; ++i)
    grid[i] = (dims[i] + chunk_dims[i] - 1) / chunk_dims[i];
  std::vector<std::uint64_t> stride(rank, 1);
  for (std::size_t i = rank; i-- > 1;) stride[i - 1] = stride[i] * dims[i];

  if (chunks_.size() != product(grid))
    throw ConfigError("h5lite: chunk table size mismatch");

  std::vector<std::uint64_t> coord(rank, 0);
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const auto& entry = chunks_[c];
    if (entry.offset > image_->size() ||
        entry.stored > image_->size() - entry.offset)
      throw ConfigError("h5lite: chunk payload out of range");

    // Expected raw size from the (validated) grid walk — computed *before*
    // touching the codec, so a corrupt `raw` field cannot request a giant
    // decompression buffer.
    std::vector<std::uint64_t> lo(rank), extent(rank);
    std::uint64_t chunk_elems = 1;
    for (std::size_t i = 0; i < rank; ++i) {
      lo[i] = coord[i] * chunk_dims[i];
      extent[i] = std::min(chunk_dims[i], dims[i] - lo[i]);
      chunk_elems *= extent[i];
    }
    if (entry.raw != chunk_elems * elem)
      throw ConfigError("h5lite: chunk raw size mismatch");

    std::span<const std::byte> stored(image_->data() + entry.offset, entry.stored);
    std::vector<std::byte> raw;
    if (entry.stored == entry.raw) {
      raw.assign(stored.begin(), stored.end());
    } else {
      const compress::Codec* cc = compress::find_codec(codec_);
      if (cc == nullptr) throw ConfigError("h5lite: compressed chunk with no codec");
      raw = cc->decompress(stored, entry.raw);
    }
    if (raw.size() != chunk_elems * elem)
      throw ConfigError("h5lite: chunk raw size mismatch");

    std::vector<std::uint64_t> idx(rank, 0);
    const std::uint64_t inner = extent[rank - 1];
    std::uint64_t consumed = 0;
    for (;;) {
      std::uint64_t dst_elem = 0;
      for (std::size_t i = 0; i < rank; ++i)
        dst_elem += (lo[i] + idx[i]) * stride[i];
      std::memcpy(out.data() + dst_elem * elem,
                  raw.data() + consumed * elem, inner * elem);
      consumed += inner;
      std::size_t dim = rank - 1;
      for (;;) {
        if (dim == 0) goto chunk_done;
        --dim;
        if (++idx[dim] < extent[dim]) break;
        idx[dim] = 0;
      }
      if (rank == 1) break;
    }
  chunk_done:;

    for (std::size_t i = rank; i-- > 0;) {
      if (++coord[i] < grid[i]) break;
      coord[i] = 0;
    }
  }
  return out;
}

const Group* Group::find_group(std::string_view child) const noexcept {
  for (const auto& g : groups)
    if (g.name == child) return &g;
  return nullptr;
}

const Dataset* Group::find_dataset(std::string_view child) const noexcept {
  for (const auto& d : datasets)
    if (d.name == child) return &d;
  return nullptr;
}

namespace {

Dataset parse_dataset(Cursor& cur, const std::vector<std::byte>* image);
Group parse_group(Cursor& cur, const std::vector<std::byte>* image, int depth);

std::map<std::string, AttrValue, std::less<>> parse_attrs(Cursor& cur) {
  std::map<std::string, AttrValue, std::less<>> out;
  const std::uint16_t n = cur.u16();
  for (std::uint16_t i = 0; i < n; ++i) {
    std::string name = cur.name();
    out.emplace(std::move(name), cur.attr_value());
  }
  return out;
}

}  // namespace

// Dataset's private fields are set during parse; File is a friend, so the
// actual parse functions are implemented as members of a helper that File
// exposes to this translation unit.
struct DatasetAccess {
  static Dataset parse(Cursor& cur, const std::vector<std::byte>* image) {
    Dataset d;
    d.name = cur.name();
    d.attributes = parse_attrs(cur);
    const std::uint8_t dtype_tag = cur.u8();
    if (dtype_tag > static_cast<std::uint8_t>(DType::kFloat64))
      throw ConfigError("h5lite: unknown dtype tag");
    d.dtype = static_cast<DType>(dtype_tag);
    const std::uint8_t rank = cur.u8();
    if (rank == 0 || rank > 8) throw ConfigError("h5lite: bad dataset rank");
    d.dims.resize(rank);
    for (auto& dim : d.dims) dim = cur.u64();
    // Overflow-audited size: everything downstream (output buffers, chunk
    // strides) trusts product(dims) * dtype_size.
    const std::uint64_t expected_bytes =
        checked_byte_size(d.dims, dtype_size(d.dtype));
    const std::uint8_t layout = cur.u8();
    d.image_ = image;
    if (layout == 0) {
      d.data_offset_ = cur.u64();
      d.data_size_ = cur.u64();
      if (d.data_size_ != expected_bytes)
        throw ConfigError("h5lite: contiguous payload size mismatch");
      check_range(image, d.data_offset_, d.data_size_, "dataset payload");
    } else if (layout == 1) {
      d.chunked_ = true;
      d.chunk_dims_cache_.resize(rank);
      for (auto& cd : d.chunk_dims_cache_) {
        cd = cur.u64();
        if (cd == 0) throw ConfigError("h5lite: zero chunk dim");
      }
      d.codec_ = static_cast<compress::CodecId>(cur.u8());
      const std::uint64_t n = cur.u64();
      if (n > (1ull << 32)) throw ConfigError("h5lite: absurd chunk count");
      // Each table entry takes 24 bytes in the image: bound n by what the
      // image can still hold *before* resizing, or a hostile count turns
      // into a giant allocation rather than a parse error.
      if (n > cur.remaining() / 24)
        throw ConfigError("h5lite: chunk table exceeds image");
      d.chunks_.resize(n);
      std::uint64_t raw_total = 0;
      for (auto& c : d.chunks_) {
        c.offset = cur.u64();
        c.stored = cur.u64();
        c.raw = cur.u64();
        check_range(image, c.offset, c.stored, "chunk payload");
        if (c.raw > UINT64_MAX - raw_total)
          throw ConfigError("h5lite: chunk raw sizes overflow");
        raw_total += c.raw;
      }
      // The chunks partition the dataset: their raw bytes must add up to
      // exactly product(dims) * dtype_size.  This also kills images whose
      // dimension arithmetic wraps into a zero-chunk grid.
      if (raw_total != expected_bytes)
        throw ConfigError("h5lite: chunk raw sizes disagree with dims");
      // Decompression-bomb guard: the codecs can legitimately expand far
      // beyond the stored bytes (RLE encodes an arbitrary run in ~10
      // bytes), so no exact bound exists — but a dataset claiming to
      // decode to thousands of times the entire image is corruption or an
      // attack, not data.  Capping here keeps Dataset::read from being
      // talked into a multi-terabyte allocation by a few hostile u64s.
      if (image != nullptr) {
        const std::uint64_t image_size = image->size();
        const std::uint64_t cap =
            image_size > (UINT64_MAX >> 10)
                ? UINT64_MAX
                : std::max<std::uint64_t>(64ull << 20, image_size << 10);
        if (raw_total > cap)
          throw ConfigError("h5lite: chunked dataset raw size implausible");
      }
    } else {
      throw ConfigError("h5lite: unknown dataset layout");
    }
    return d;
  }
};

namespace {

Dataset parse_dataset(Cursor& cur, const std::vector<std::byte>* image) {
  return DatasetAccess::parse(cur, image);
}

Group parse_group(Cursor& cur, const std::vector<std::byte>* image, int depth) {
  if (depth > 64) throw ConfigError("h5lite: group nesting too deep");
  Group g;
  g.name = cur.name();
  g.attributes = parse_attrs(cur);
  const std::uint16_t n_datasets = cur.u16();
  g.datasets.reserve(n_datasets);
  for (std::uint16_t i = 0; i < n_datasets; ++i)
    g.datasets.push_back(parse_dataset(cur, image));
  const std::uint16_t n_groups = cur.u16();
  g.groups.reserve(n_groups);
  for (std::uint16_t i = 0; i < n_groups; ++i)
    g.groups.push_back(parse_group(cur, image, depth + 1));
  return g;
}

}  // namespace

File File::parse(std::vector<std::byte> image) {
  if (image.size() < kSuperblockSize) throw ConfigError("h5lite: image too small");
  if (std::memcmp(image.data(), kMagic, 8) != 0)
    throw ConfigError("h5lite: bad magic");
  Cursor head(image, 8);
  const std::uint64_t root_offset = head.u64();
  const std::uint64_t file_size = head.u64();
  if (file_size > image.size() || root_offset >= file_size ||
      root_offset < kSuperblockSize)
    throw ConfigError("h5lite: corrupt superblock");

  File f;
  f.image_ = std::make_unique<std::vector<std::byte>>(std::move(image));
  Cursor cur(*f.image_, root_offset);
  f.root_ = parse_group(cur, f.image_.get(), 0);
  return f;
}

const Group* File::find_group(std::string_view path) const {
  const Group* g = &root_;
  while (!path.empty() && g != nullptr) {
    const auto slash = path.find('/');
    const std::string_view head = path.substr(0, slash);
    g = g->find_group(head);
    if (slash == std::string_view::npos) break;
    path = path.substr(slash + 1);
  }
  return g;
}

const Dataset* File::find_dataset(std::string_view path) const {
  const auto slash = path.rfind('/');
  if (slash == std::string_view::npos) return root_.find_dataset(path);
  const Group* g = find_group(path.substr(0, slash));
  return g ? g->find_dataset(path.substr(slash + 1)) : nullptr;
}

std::vector<std::string> File::dataset_paths() const {
  std::vector<std::string> out;
  auto walk = [&](auto&& self, const Group& g, const std::string& prefix) -> void {
    for (const auto& d : g.datasets) out.push_back(prefix + d.name);
    for (const auto& child : g.groups)
      self(self, child, prefix + child.name + "/");
  };
  walk(walk, root_, "");
  return out;
}

// ---------------------------------------------------------------------------
// SharedLayout
// ---------------------------------------------------------------------------

SharedLayout::SharedLayout(std::vector<Decl> datasets)
    : decls_(std::move(datasets)) {
  if (decls_.empty()) throw ConfigError("SharedLayout: no datasets");

  // Payloads packed after the superblock, 8-byte aligned.
  std::uint64_t cursor = kSuperblockSize;
  offsets_.reserve(decls_.size());
  for (const auto& d : decls_) {
    cursor = (cursor + 7) / 8 * 8;
    offsets_.push_back(cursor);
    cursor += product(d.dims) * dtype_size(d.dtype);
  }
  metadata_offset_ = cursor;

  // Group the declarations by their single-level path prefix and serialize
  // the metadata tree with contiguous layouts pointing at the payload
  // offsets.  Everyone building the same decls gets an identical image.
  struct Entry { std::size_t index; std::string leaf; };
  std::vector<std::pair<std::string, std::vector<Entry>>> by_group;
  auto group_of = [&](const std::string& path) -> std::pair<std::string, std::string> {
    const auto slash = path.rfind('/');
    if (slash == std::string::npos) return {"", path};
    return {path.substr(0, slash), path.substr(slash + 1)};
  };
  for (std::size_t i = 0; i < decls_.size(); ++i) {
    auto [grp, leaf] = group_of(decls_[i].path);
    if (grp.find('/') != std::string::npos)
      throw ConfigError("SharedLayout: at most one group level supported");
    auto it = std::find_if(by_group.begin(), by_group.end(),
                           [&](const auto& p) { return p.first == grp; });
    if (it == by_group.end()) {
      by_group.emplace_back(grp, std::vector<Entry>{});
      it = by_group.end() - 1;
    }
    it->second.push_back(Entry{i, leaf});
  }

  auto serialize_decl = [&](std::vector<std::byte>& out, const Entry& e) {
    const Decl& d = decls_[e.index];
    put_name(out, e.leaf);
    put_u16(out, 0);  // no attributes
    put_u8(out, static_cast<std::uint8_t>(d.dtype));
    put_u8(out, static_cast<std::uint8_t>(d.dims.size()));
    for (auto dim : d.dims) put_u64(out, dim);
    put_u8(out, 0);  // contiguous
    put_u64(out, offsets_[e.index]);
    put_u64(out, product(d.dims) * dtype_size(d.dtype));
  };

  // Root group.
  put_name(metadata_, "");
  put_u16(metadata_, 0);  // attrs
  std::vector<Entry>* root_entries = nullptr;
  std::size_t n_child_groups = 0;
  for (auto& [grp, entries] : by_group) {
    if (grp.empty()) root_entries = &entries;
    else ++n_child_groups;
  }
  put_u16(metadata_, static_cast<std::uint16_t>(root_entries ? root_entries->size() : 0));
  if (root_entries)
    for (const auto& e : *root_entries) serialize_decl(metadata_, e);
  put_u16(metadata_, static_cast<std::uint16_t>(n_child_groups));
  for (auto& [grp, entries] : by_group) {
    if (grp.empty()) continue;
    put_name(metadata_, grp);
    put_u16(metadata_, 0);  // attrs
    put_u16(metadata_, static_cast<std::uint16_t>(entries.size()));
    for (const auto& e : entries) serialize_decl(metadata_, e);
    put_u16(metadata_, 0);  // no nested groups
  }

  total_size_ = metadata_offset_ + metadata_.size();

  header_.resize(kSuperblockSize);
  std::memcpy(header_.data(), kMagic, 8);
  std::vector<std::byte> tail;
  put_u64(tail, metadata_offset_);
  put_u64(tail, total_size_);
  std::memcpy(header_.data() + 8, tail.data(), 16);
}

std::uint64_t SharedLayout::payload_offset(std::size_t i) const {
  DEDICORE_CHECK(i < offsets_.size(), "SharedLayout: dataset index out of range");
  return offsets_[i];
}

std::uint64_t SharedLayout::payload_size(std::size_t i) const {
  DEDICORE_CHECK(i < decls_.size(), "SharedLayout: dataset index out of range");
  return product(decls_[i].dims) * dtype_size(decls_[i].dtype);
}

}  // namespace dedicore::h5lite
