#ifndef DSKG_SPARQL_BINDINGS_H_
#define DSKG_SPARQL_BINDINGS_H_

/// \file bindings.h
/// Query results: tables of variable bindings.
///
/// Both engines (relational executor and graph traversal matcher) produce
/// `BindingTable`s — a header of variable names plus rows of dictionary
/// ids. The query processor also uses them as the migrated intermediate
/// results that flow from the graph store into the relational store's
/// temporary table space (paper §5).
///
/// Storage is columnar-flat: one contiguous `TermId` buffer in row-major
/// order with stride `NumColumns()`, not a vector per row. Appending a
/// row is a bump of the flat buffer (amortized zero allocations), copying
/// a row is a `memcpy`-able span copy, and the whole table hands over to
/// another engine as a single buffer. Variable names exist only in the
/// header; the per-row hot path works purely on column indexes ("slots")
/// that callers resolve once at plan time.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "rdf/triple.h"

namespace dskg::sparql {

/// A relation over query variables: column names + rows of term ids in
/// one flat row-major buffer.
///
/// Protocol: set `columns` first (the stride), then append rows. The row
/// count is tracked explicitly so zero-column tables (all-constant
/// patterns) still count their matches.
struct BindingTable {
  /// Variable names (no '?'), one per column. Set before appending rows.
  std::vector<std::string> columns;

  /// Index of `var` in `columns`, or -1. Plan-time only — never call on
  /// a per-row path; resolve to an int slot once and index with it.
  int ColumnIndex(const std::string& var) const {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (columns[i] == var) return static_cast<int>(i);
    }
    return -1;
  }

  bool HasColumn(const std::string& var) const {
    return ColumnIndex(var) >= 0;
  }

  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return columns.size(); }
  bool empty() const { return num_rows_ == 0; }

  /// The flat row-major buffer (`NumRows() * NumColumns()` ids).
  const std::vector<rdf::TermId>& flat() const { return data_; }

  /// First cell of row `r` (valid for `NumColumns()` entries).
  const rdf::TermId* RowData(size_t r) const {
    return data_.data() + r * columns.size();
  }

  /// Cell at row `r`, column `c`.
  rdf::TermId At(size_t r, size_t c) const {
    return data_[r * columns.size() + c];
  }

  /// Lightweight non-owning view of one row, iterable and indexable.
  struct RowView {
    const rdf::TermId* ptr = nullptr;
    size_t n = 0;
    size_t size() const { return n; }
    const rdf::TermId& operator[](size_t i) const { return ptr[i]; }
    const rdf::TermId* begin() const { return ptr; }
    const rdf::TermId* end() const { return ptr + n; }
  };

  RowView Row(size_t r) const { return RowView{RowData(r), columns.size()}; }

  /// Range over all rows: `for (BindingTable::RowView row : t.Rows())`.
  struct RowRange {
    const BindingTable* table;
    struct Iterator {
      const BindingTable* table;
      size_t r;
      RowView operator*() const { return table->Row(r); }
      Iterator& operator++() {
        ++r;
        return *this;
      }
      bool operator!=(const Iterator& o) const { return r != o.r; }
    };
    Iterator begin() const { return {table, 0}; }
    Iterator end() const { return {table, table->NumRows()}; }
  };

  RowRange Rows() const { return RowRange{this}; }

  /// Pre-sizes the flat buffer for `n` additional rows.
  void ReserveRows(size_t n) { data_.reserve(data_.size() + n * columns.size()); }

  /// Appends one row and returns its cell span to be filled in place —
  /// the zero-copy emission path (a `resize` bump, no per-row vector).
  rdf::TermId* AppendRow() {
    data_.resize(data_.size() + columns.size());
    ++num_rows_;
    return data_.data() + data_.size() - columns.size();
  }

  /// Appends a copy of `vals[0 .. NumColumns())`.
  void AppendRow(const rdf::TermId* vals) {
    data_.insert(data_.end(), vals, vals + columns.size());
    ++num_rows_;
  }

  /// Appends a row from an explicit list (tests, small seeds). The list
  /// must have exactly `NumColumns()` entries — a wrong length would
  /// silently shear every later row in the flat layout.
  void AppendRow(std::initializer_list<rdf::TermId> vals) {
    assert(vals.size() == columns.size());
    data_.insert(data_.end(), vals.begin(), vals.end());
    ++num_rows_;
  }

  /// Appends every row of `other`, which must have the same column count.
  /// Bulk buffer splice — the sharded-merge fast path.
  void AppendRowsFrom(const BindingTable& other) {
    data_.insert(data_.end(), other.data_.begin(), other.data_.end());
    num_rows_ += other.num_rows_;
  }

  /// Appends rows `[begin, end)` of `src`, each restricted to the source
  /// columns `cols` (one per column of this table, in order) — the
  /// projection copy.
  void AppendRowsFrom(const BindingTable& src, const std::vector<int>& cols,
                      size_t begin, size_t end) {
    assert(cols.size() == columns.size());
    data_.reserve(data_.size() + (end - begin) * cols.size());
    for (size_t r = begin; r < end; ++r) {
      const rdf::TermId* row = src.RowData(r);
      for (const int c : cols) data_.push_back(row[c]);
    }
    num_rows_ += end - begin;
  }

  /// Drops all rows, keeping the header.
  void ClearRows() {
    data_.clear();
    num_rows_ = 0;
  }

  /// Sorts rows lexicographically — canonical form for test comparisons.
  void Canonicalize() {
    const size_t stride = columns.size();
    if (stride == 0 || num_rows_ < 2) return;
    std::vector<size_t> order(num_rows_);
    std::iota(order.begin(), order.end(), size_t{0});
    const rdf::TermId* base = data_.data();
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return std::lexicographical_compare(
          base + a * stride, base + (a + 1) * stride, base + b * stride,
          base + (b + 1) * stride);
    });
    std::vector<rdf::TermId> sorted;
    sorted.reserve(data_.size());
    for (size_t r : order) {
      sorted.insert(sorted.end(), base + r * stride, base + (r + 1) * stride);
    }
    data_ = std::move(sorted);
  }

  /// Canonicalized equality: same columns (same order) and same multiset
  /// of rows.
  static bool SameRows(BindingTable a, BindingTable b) {
    if (a.columns != b.columns) return false;
    if (a.num_rows_ != b.num_rows_) return false;
    a.Canonicalize();
    b.Canonicalize();
    return a.data_ == b.data_;
  }

 private:
  std::vector<rdf::TermId> data_;
  size_t num_rows_ = 0;
};

}  // namespace dskg::sparql

#endif  // DSKG_SPARQL_BINDINGS_H_
