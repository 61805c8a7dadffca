#include "src/journal/journal_format.h"

#include <array>
#include <cstring>

#include "src/support/little_endian.h"

namespace ssmc {
namespace {

// Magics are 8 ASCII bytes stored little-endian so a hex dump reads them.
constexpr uint64_t kSuperblockMagic = 0x314E524A434D5353ull;  // "SSMCJRN1"
constexpr uint64_t kCheckpointMagic = 0x50484B43434D5353ull;  // "SSMCCKHP"
constexpr uint64_t kLogMagic = 0x30474F4C434D5353ull;         // "SSMCLOG0"
constexpr uint16_t kFormatVersion = 1;

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

bool KnownRecordType(uint8_t type) {
  return type >= static_cast<uint8_t>(JournalRecordType::kMkdir) &&
         type <= static_cast<uint8_t>(JournalRecordType::kCheckpoint);
}

// Record wire layout:
//   u32 crc        (over everything after this field)
//   u32 length     (bytes after the length field itself)
//   u8  type
//   u64 lsn
//   u64 file_id | u64 size/index | u64 flash_block | u16 tenant
//   u16 path_len, path bytes, u16 path2_len, path2 bytes
constexpr uint64_t kRecordFixedBytes =
    4 + 4 + 1 + 8 + 8 + 8 + 8 + 2 + 2 + 2;

}  // namespace

uint32_t Crc32(uint32_t seed, std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (uint8_t byte : data) c = table[(c ^ byte) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::span<const uint8_t> data) { return Crc32(0, data); }

const char* JournalRecordTypeName(JournalRecordType type) {
  switch (type) {
    case JournalRecordType::kMkdir: return "mkdir";
    case JournalRecordType::kCreate: return "create";
    case JournalRecordType::kUnlink: return "unlink";
    case JournalRecordType::kRmdir: return "rmdir";
    case JournalRecordType::kRename: return "rename";
    case JournalRecordType::kSetSize: return "set_size";
    case JournalRecordType::kExtent: return "extent";
    case JournalRecordType::kTenantStamp: return "tenant_stamp";
    case JournalRecordType::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

uint64_t EncodedJournalRecordSize(const JournalRecord& record) {
  return kRecordFixedBytes + record.path.size() + record.path2.size();
}

uint64_t EncodeJournalRecord(const JournalRecord& record,
                             std::vector<uint8_t>& out) {
  const uint64_t start = out.size();
  const uint64_t total = EncodedJournalRecordSize(record);
  const uint32_t length = static_cast<uint32_t>(total - 8);  // After crc+len.
  AppendLe<uint32_t>(out, 0);  // CRC placeholder.
  AppendLe<uint32_t>(out, length);
  out.push_back(static_cast<uint8_t>(record.type));
  AppendLe<uint64_t>(out, record.lsn);
  AppendLe<uint64_t>(out, record.file_id);
  AppendLe<uint64_t>(out, record.size);
  AppendLe<uint64_t>(out, record.flash_block);
  AppendLe<uint16_t>(out, record.tenant);
  AppendLe<uint16_t>(out, static_cast<uint16_t>(record.path.size()));
  out.insert(out.end(), record.path.begin(), record.path.end());
  AppendLe<uint16_t>(out, static_cast<uint16_t>(record.path2.size()));
  out.insert(out.end(), record.path2.begin(), record.path2.end());
  // CRC covers the length field onward so a truncated or bit-flipped record
  // fails closed.
  const uint32_t crc = Crc32(
      std::span<const uint8_t>(out.data() + start + 4, total - 4));
  StoreLe<uint32_t>(out, start, crc);
  return total;
}

bool DecodeJournalRecord(std::span<const uint8_t> data, uint64_t* pos,
                         JournalRecord* record) {
  const uint64_t p = *pos;
  if (data.size() - p < kRecordFixedBytes) return false;
  const uint32_t crc = LoadLe<uint32_t>(data, p);
  const uint32_t length = LoadLe<uint32_t>(data, p + 4);
  const uint64_t total = uint64_t{length} + 8;
  if (length < kRecordFixedBytes - 8 || total > data.size() - p) return false;
  if (Crc32(data.subspan(p + 4, total - 4)) != crc) return false;
  const uint8_t type = data[p + 8];
  if (!KnownRecordType(type)) return false;
  record->type = static_cast<JournalRecordType>(type);
  record->lsn = LoadLe<uint64_t>(data, p + 9);
  record->file_id = LoadLe<uint64_t>(data, p + 17);
  record->size = LoadLe<uint64_t>(data, p + 25);
  record->flash_block = LoadLe<uint64_t>(data, p + 33);
  record->tenant = LoadLe<uint16_t>(data, p + 41);
  const uint16_t path_len = LoadLe<uint16_t>(data, p + 43);
  if (kRecordFixedBytes - 2 + path_len > total) return false;
  record->path.assign(reinterpret_cast<const char*>(data.data() + p + 45),
                      path_len);
  const uint64_t p2_at = p + 45 + path_len;
  const uint16_t path2_len = LoadLe<uint16_t>(data, p2_at);
  if (kRecordFixedBytes + path_len + path2_len != total) return false;
  record->path2.assign(
      reinterpret_cast<const char*>(data.data() + p2_at + 2), path2_len);
  *pos = p + total;
  return true;
}

void EncodeJournalSuperblock(const JournalSuperblock& sb, uint64_t block_bytes,
                             std::vector<uint8_t>& out) {
  out.clear();
  out.reserve(block_bytes);
  AppendLe<uint64_t>(out, kSuperblockMagic);
  AppendLe<uint32_t>(out, 0);  // CRC placeholder (over every byte after it).
  AppendLe<uint16_t>(out, kFormatVersion);
  AppendLe<uint16_t>(out, 0);  // Reserved.
  AppendLe<uint64_t>(out, sb.generation);
  AppendLe<uint64_t>(out, sb.next_lsn);
  AppendLe<uint64_t>(out, sb.checkpoint_lsn);
  AppendLe<uint64_t>(out, sb.checkpoint_time);
  AppendLe<uint64_t>(out, sb.checkpoint_head);
  AppendLe<uint64_t>(out, sb.checkpoint_bytes);
  AppendLe<uint64_t>(out, sb.log_tail);
  AppendLe<uint64_t>(out, sb.log_blocks);
  const uint32_t crc = Crc32(
      std::span<const uint8_t>(out.data() + 12, kJournalSuperblockBytes - 12));
  StoreLe<uint32_t>(out, 8, crc);
  out.resize(block_bytes, 0);
}

bool DecodeJournalSuperblock(std::span<const uint8_t> raw,
                             JournalSuperblock* sb) {
  if (raw.size() < kJournalSuperblockBytes) return false;
  if (LoadLe<uint64_t>(raw, 0) != kSuperblockMagic) return false;
  const uint32_t crc = LoadLe<uint32_t>(raw, 8);
  if (Crc32(raw.subspan(12, kJournalSuperblockBytes - 12)) != crc) return false;
  if (LoadLe<uint16_t>(raw, 12) != kFormatVersion) return false;
  sb->generation = LoadLe<uint64_t>(raw, 16);
  sb->next_lsn = LoadLe<uint64_t>(raw, 24);
  sb->checkpoint_lsn = LoadLe<uint64_t>(raw, 32);
  sb->checkpoint_time = LoadLe<uint64_t>(raw, 40);
  sb->checkpoint_head = LoadLe<uint64_t>(raw, 48);
  sb->checkpoint_bytes = LoadLe<uint64_t>(raw, 56);
  sb->log_tail = LoadLe<uint64_t>(raw, 64);
  sb->log_blocks = LoadLe<uint64_t>(raw, 72);
  return true;
}

void EncodeCheckpointBlockHeader(uint64_t next_block,
                                 std::vector<uint8_t>& out) {
  AppendLe<uint64_t>(out, kCheckpointMagic);
  AppendLe<uint64_t>(out, next_block);
}

bool DecodeCheckpointBlockHeader(std::span<const uint8_t> raw,
                                 uint64_t* next_block) {
  if (raw.size() < kCheckpointBlockHeaderBytes) return false;
  if (LoadLe<uint64_t>(raw, 0) != kCheckpointMagic) return false;
  *next_block = LoadLe<uint64_t>(raw, 8);
  return true;
}

void EncodeLogBlockHeader(uint64_t prev_block, uint64_t base_lsn,
                          std::vector<uint8_t>& out) {
  AppendLe<uint64_t>(out, kLogMagic);
  AppendLe<uint64_t>(out, prev_block);
  AppendLe<uint64_t>(out, base_lsn);
}

bool DecodeLogBlockHeader(std::span<const uint8_t> raw, uint64_t* prev_block,
                          uint64_t* base_lsn) {
  if (raw.size() < kLogBlockHeaderBytes) return false;
  if (LoadLe<uint64_t>(raw, 0) != kLogMagic) return false;
  *prev_block = LoadLe<uint64_t>(raw, 8);
  *base_lsn = LoadLe<uint64_t>(raw, 16);
  return true;
}

}  // namespace ssmc
