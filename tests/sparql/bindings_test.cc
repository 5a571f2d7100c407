// Unit tests for the columnar BindingTable: flat-storage accessors, row
// append paths, projection, canonicalization and the zero-column edge
// cases the explicit row counter exists for.

#include "sparql/bindings.h"

#include <gtest/gtest.h>

#include <vector>

#include "relstore/executor.h"

namespace dskg::sparql {
namespace {

using rdf::TermId;

TEST(BindingTableFlat, AppendAndAccessors) {
  BindingTable t;
  t.columns = {"a", "b"};
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.NumColumns(), 2u);

  t.AppendRow({1, 2});
  const TermId vals[] = {3, 4};
  t.AppendRow(vals);
  TermId* in_place = t.AppendRow();
  in_place[0] = 5;
  in_place[1] = 6;

  ASSERT_EQ(t.NumRows(), 3u);
  EXPECT_FALSE(t.empty());
  // Flat row-major layout with stride NumColumns().
  EXPECT_EQ(t.flat(), (std::vector<TermId>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(t.At(0, 1), 2u);
  EXPECT_EQ(t.At(2, 0), 5u);
  EXPECT_EQ(t.RowData(1)[0], 3u);

  // RowView indexing and iteration.
  BindingTable::RowView row = t.Row(1);
  EXPECT_EQ(row.size(), 2u);
  EXPECT_EQ(row[1], 4u);
  TermId sum = 0;
  for (BindingTable::RowView r : t.Rows()) {
    for (TermId v : r) sum += v;
  }
  EXPECT_EQ(sum, 21u);
}

TEST(BindingTableFlat, AppendRowsFromSplicesBuffers) {
  BindingTable a, b;
  a.columns = b.columns = {"x", "y"};
  a.AppendRow({1, 2});
  b.AppendRow({3, 4});
  b.AppendRow({5, 6});
  a.AppendRowsFrom(b);
  EXPECT_EQ(a.NumRows(), 3u);
  EXPECT_EQ(a.flat(), (std::vector<TermId>{1, 2, 3, 4, 5, 6}));
}

TEST(BindingTableFlat, ClearRowsKeepsHeader) {
  BindingTable t;
  t.columns = {"a"};
  t.AppendRow({7});
  t.ClearRows();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.NumColumns(), 1u);
  EXPECT_TRUE(t.flat().empty());
}

TEST(BindingTableFlat, ZeroColumnRowsStillCount) {
  // An all-constant pattern produces zero-width rows; the match count
  // must survive (the flat buffer alone cannot carry it).
  BindingTable t;
  t.AppendRow();
  t.AppendRow();
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_FALSE(t.empty());
  EXPECT_TRUE(t.flat().empty());

  BindingTable s;
  s.AppendRow();
  EXPECT_FALSE(BindingTable::SameRows(t, s));  // 2 rows vs 1 row
  s.AppendRow();
  EXPECT_TRUE(BindingTable::SameRows(t, s));
}

TEST(BindingTableFlat, ProjectDuplicateTargetColumn) {
  BindingTable t;
  t.columns = {"a", "b"};
  t.AppendRow({1, 2});
  auto p = relstore::Executor::Project(t, {"b", "a", "b"});
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->columns, (std::vector<std::string>{"b", "a", "b"}));
  ASSERT_EQ(p->NumRows(), 1u);
  EXPECT_EQ(p->flat(), (std::vector<TermId>{2, 1, 2}));
}

TEST(BindingTableFlat, CanonicalizeSortsLexicographically) {
  BindingTable t;
  t.columns = {"a", "b"};
  t.AppendRow({2, 1});
  t.AppendRow({1, 9});
  t.AppendRow({1, 3});
  t.Canonicalize();
  EXPECT_EQ(t.flat(), (std::vector<TermId>{1, 3, 1, 9, 2, 1}));
}

TEST(BindingTableFlat, ReserveRowsDoesNotChangeContents) {
  BindingTable t;
  t.columns = {"a"};
  t.AppendRow({1});
  t.ReserveRows(1000);
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.flat(), std::vector<TermId>{1});
}

}  // namespace
}  // namespace dskg::sparql
