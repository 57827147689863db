#include "store/format.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace paraprox::store {

namespace {

/// Header layout: magic u32, version u32, kind u32, reserved u32,
/// payload_size u64, payload_checksum u64.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 4 + 8 + 8;

/// Strings and vectors longer than this are treated as corruption; no
/// legitimate artifact approaches it.
constexpr std::size_t kMaxLength = std::size_t{1} << 28;

std::uint32_t
load_u32(const std::uint8_t* p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
load_u64(const std::uint8_t* p)
{
    return static_cast<std::uint64_t>(load_u32(p)) |
           static_cast<std::uint64_t>(load_u32(p + 4)) << 32;
}

}  // namespace

std::uint64_t
fnv1a64(const void* data, std::size_t size, std::uint64_t seed)
{
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

void
ByteWriter::u32(std::uint32_t v)
{
    bytes_.push_back(static_cast<std::uint8_t>(v));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 16));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void
ByteWriter::u64(std::uint64_t v)
{
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
}

void
ByteWriter::f32(float v)
{
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u32(bits);
}

void
ByteWriter::f64(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void
ByteWriter::str(const std::string& v)
{
    u64(v.size());
    bytes_.insert(bytes_.end(), v.begin(), v.end());
}

bool
ByteReader::take(std::size_t n)
{
    if (failed_ || n > size_ - pos_) {
        failed_ = true;
        return false;
    }
    return true;
}

std::uint8_t
ByteReader::u8()
{
    if (!take(1))
        return 0;
    return data_[pos_++];
}

std::uint32_t
ByteReader::u32()
{
    if (!take(4))
        return 0;
    const std::uint32_t v = load_u32(data_ + pos_);
    pos_ += 4;
    return v;
}

std::uint64_t
ByteReader::u64()
{
    if (!take(8))
        return 0;
    const std::uint64_t v = load_u64(data_ + pos_);
    pos_ += 8;
    return v;
}

float
ByteReader::f32()
{
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

double
ByteReader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

std::string
ByteReader::str()
{
    const std::uint64_t length = u64();
    if (failed_ || length > kMaxLength || !take(length)) {
        failed_ = true;
        return {};
    }
    std::string out(reinterpret_cast<const char*>(data_ + pos_),
                    static_cast<std::size_t>(length));
    pos_ += static_cast<std::size_t>(length);
    return out;
}

std::size_t
ByteReader::count(std::size_t min_element_bytes)
{
    const std::uint64_t declared = u64();
    if (failed_ || declared > kMaxLength ||
        declared * min_element_bytes > size_ - pos_) {
        failed_ = true;
        return 0;
    }
    return static_cast<std::size_t>(declared);
}

std::vector<std::uint8_t>
encode_record(ArtifactKind kind, const std::vector<std::uint8_t>& payload)
{
    ByteWriter header;
    header.u32(kMagic);
    header.u32(kFormatVersion);
    header.u32(static_cast<std::uint32_t>(kind));
    header.u32(0);  // reserved
    header.u64(payload.size());
    header.u64(fnv1a64(payload.data(), payload.size()));

    std::vector<std::uint8_t> out = header.bytes();
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

RecordInfo
probe_record(const std::vector<std::uint8_t>& file)
{
    RecordInfo info;
    if (file.size() < kHeaderBytes || load_u32(file.data()) != kMagic)
        return info;
    info.version = load_u32(file.data() + 4);
    info.kind = static_cast<ArtifactKind>(load_u32(file.data() + 8));
    info.payload_size = load_u64(file.data() + 16);
    const std::uint64_t checksum = load_u64(file.data() + 24);
    info.valid =
        info.version == kFormatVersion &&
        (info.kind == ArtifactKind::Program ||
         info.kind == ArtifactKind::Table ||
         info.kind == ArtifactKind::Calibration ||
         info.kind == ArtifactKind::FleetCalibration ||
         info.kind == ArtifactKind::Lease) &&
        info.payload_size == file.size() - kHeaderBytes &&
        checksum == fnv1a64(file.data() + kHeaderBytes,
                            file.size() - kHeaderBytes);
    return info;
}

std::optional<std::vector<std::uint8_t>>
decode_record(const std::vector<std::uint8_t>& file, ArtifactKind expected)
{
    const RecordInfo info = probe_record(file);
    if (!info.valid || info.kind != expected)
        return std::nullopt;
    return std::vector<std::uint8_t>(file.begin() + kHeaderBytes,
                                     file.end());
}

std::optional<std::vector<std::uint8_t>>
read_file_bytes(const std::filesystem::path& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        return std::nullopt;
    return bytes;
}

bool
write_file_atomic(const std::filesystem::path& path,
                  const std::vector<std::uint8_t>& bytes)
{
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);

    // Unique-per-writer temp name so concurrent writers of the same key
    // never interleave; the rename makes whichever finishes last win with
    // a complete record either way.
    static std::atomic<std::uint64_t> counter{0};
    const auto tmp = path.parent_path() /
                     (path.filename().string() + ".tmp" +
                      std::to_string(counter.fetch_add(1)) + "." +
                      std::to_string(
                          static_cast<unsigned long>(::getpid())));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            return false;
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

}  // namespace paraprox::store
