#ifndef RAPIDA_MAPREDUCE_RECORD_H_
#define RAPIDA_MAPREDUCE_RECORD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rapida::mr {

/// 64-bit FNV-1a over the key bytes. Computed once per record at emit time
/// and reused for shuffle partitioning, so the hot loops never rehash.
inline uint64_t HashKey(std::string_view key) {
  uint64_t h = 14695981039346656037ull;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// First 8 key bytes packed big-endian (shorter keys zero-padded on the
/// right). Numeric comparison of two prefixes equals lexicographic
/// comparison of the first 8 bytes, so sort/merge comparisons resolve on
/// one integer unless the keys share an 8-byte prefix.
inline uint64_t KeyPrefix(std::string_view key) {
  uint64_t p = 0;
  for (size_t i = 0; i < 8; ++i) {
    p = (p << 8) |
        (i < key.size() ? static_cast<unsigned char>(key[i]) : 0u);
  }
  return p;
}

/// One key/value record flowing through the simulated MapReduce runtime.
/// Keys and values are serialized byte strings so every byte that would
/// cross disk or network in a real deployment is measurable here — but the
/// bytes themselves live in a ColumnarRecords store owned by the producing
/// map/reduce context (or RecordBatch / Dfs::File), never in per-record
/// heap strings. `key_prefix` and `key_hash` are stamped once when the
/// record is created.
struct Record {
  std::string_view key;
  std::string_view value;
  uint64_t key_prefix = 0;
  uint64_t key_hash = 0;

  /// Serialized footprint used for all byte accounting (key + value +
  /// separators). Representation-independent: identical to what the
  /// std::string-backed record reported, so sim_seconds and EXPLAIN
  /// estimates never see the columnar refactor.
  uint64_t Bytes() const { return key.size() + value.size() + 2; }
};

/// Stamps prefix + hash for key/value views that are already storage-stable.
inline Record MakeRecord(std::string_view key, std::string_view value) {
  return Record{key, value, KeyPrefix(key), HashKey(key)};
}

/// Full sort order: prefix first (one integer compare), full key bytes only
/// on an 8-byte-prefix tie. Equivalent to `a.key < b.key`.
inline bool RecordKeyLess(const Record& a, const Record& b) {
  if (a.key_prefix != b.key_prefix) return a.key_prefix < b.key_prefix;
  return a.key < b.key;
}

inline bool RecordKeyEq(const Record& a, const Record& b) {
  return a.key_prefix == b.key_prefix && a.key == b.key;
}

/// Columnar record storage: every appended key concatenated into one
/// contiguous byte buffer, every value into another, with per-record end
/// offsets plus parallel key_prefix / key_hash columns stamped once at
/// append time. This is the physical layout behind MapContext /
/// ReduceContext emission, the shuffle, and Dfs files — operators scan
/// the hash column and the contiguous byte runs instead of chasing
/// per-record heap strings.
///
/// Appending may reallocate the byte buffers, so Record views are
/// materialized only after a producing phase is done (AppendRecordViews).
/// Views stay valid for the lifetime of the store's heap buffers; anything
/// that lets views escape holds the store behind shared_ptr so moves never
/// relocate small (SSO) buffers under them.
class ColumnarRecords {
 public:
  ColumnarRecords() = default;
  ColumnarRecords(const ColumnarRecords&) = delete;
  ColumnarRecords& operator=(const ColumnarRecords&) = delete;

  void Reserve(size_t records, size_t bytes) {
    key_end_.reserve(records);
    value_end_.reserve(records);
    key_prefix_.reserve(records);
    key_hash_.reserve(records);
    values_.reserve(bytes);
  }

  void Append(std::string_view key, std::string_view value) {
    keys_.append(key);
    values_.append(value);
    key_end_.push_back(keys_.size());
    value_end_.push_back(values_.size());
    key_prefix_.push_back(KeyPrefix(key));
    key_hash_.push_back(HashKey(key));
  }

  size_t size() const { return key_end_.size(); }
  bool empty() const { return key_end_.empty(); }

  std::string_view key(size_t i) const {
    size_t begin = i == 0 ? 0 : key_end_[i - 1];
    return std::string_view(keys_).substr(begin, key_end_[i] - begin);
  }
  std::string_view value(size_t i) const {
    size_t begin = i == 0 ? 0 : value_end_[i - 1];
    return std::string_view(values_).substr(begin, value_end_[i] - begin);
  }
  uint64_t key_prefix(size_t i) const { return key_prefix_[i]; }
  uint64_t key_hash(size_t i) const { return key_hash_[i]; }

  /// Sum of Record::Bytes() over all rows — O(1) from the buffer sizes.
  uint64_t LogicalBytes() const {
    return keys_.size() + values_.size() + 2 * key_end_.size();
  }

  /// Appends one Record view per row. Call only once appends are done;
  /// further Append calls may invalidate every returned view.
  void AppendRecordViews(std::vector<Record>* out) const {
    std::string_view keys(keys_);
    std::string_view values(values_);
    size_t kb = 0, vb = 0;
    for (size_t i = 0; i < key_end_.size(); ++i) {
      out->push_back(Record{keys.substr(kb, key_end_[i] - kb),
                            values.substr(vb, value_end_[i] - vb),
                            key_prefix_[i], key_hash_[i]});
      kb = key_end_[i];
      vb = value_end_[i];
    }
  }

 private:
  std::string keys_;
  std::string values_;
  std::vector<uint64_t> key_end_;    // cumulative key-byte offsets
  std::vector<uint64_t> value_end_;  // cumulative value-byte offsets
  std::vector<uint64_t> key_prefix_;
  std::vector<uint64_t> key_hash_;
};

/// Owning batch of records: the only way to hand record data to the Dfs
/// from outside a MapReduce job. Add() copies the bytes into the batch's
/// columnar store, so callers may pass temporaries; the store rides along
/// into Dfs::File (which materializes the Record views) and keeps every
/// view valid for the file's lifetime.
class RecordBatch {
 public:
  RecordBatch() = default;
  RecordBatch(RecordBatch&&) = default;
  RecordBatch& operator=(RecordBatch&&) = default;

  void Add(std::string_view key, std::string_view value) {
    if (columns.empty()) {
      columns.push_back(std::make_shared<ColumnarRecords>());
    }
    columns.back()->Append(key, value);
  }

  /// Pre-built record views (the cluster's output path fills these; views
  /// must point into `columns` stores). Left empty by Add() — Dfs::Write
  /// materializes the views once the stores are frozen.
  std::vector<Record> records;
  std::vector<std::shared_ptr<ColumnarRecords>> columns;
};

}  // namespace rapida::mr

#endif  // RAPIDA_MAPREDUCE_RECORD_H_
