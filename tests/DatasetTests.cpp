//===- tests/DatasetTests.cpp - Dataset substrate unit tests ------------------===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "data/Dataset.h"

#include "TestUtil.h"
#include "data/Csv.h"

#include <gtest/gtest.h>

using namespace antidote;
using namespace antidote::testutil;

TEST(DatasetTest, SchemaUniform) {
  DatasetSchema Schema = DatasetSchema::uniform(3, FeatureKind::Boolean, 2);
  EXPECT_EQ(Schema.numFeatures(), 3u);
  EXPECT_EQ(Schema.NumClasses, 2u);
  for (FeatureKind Kind : Schema.FeatureKinds)
    EXPECT_EQ(Kind, FeatureKind::Boolean);
}

TEST(DatasetTest, AddAndAccessRows) {
  Dataset Data(DatasetSchema::uniform(2, FeatureKind::Real, 3));
  Data.addRow({1.5f, -2.0f}, 0);
  Data.addRow({0.0f, 4.25f}, 2);
  ASSERT_EQ(Data.numRows(), 2u);
  EXPECT_DOUBLE_EQ(Data.value(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(Data.value(0, 1), -2.0);
  EXPECT_DOUBLE_EQ(Data.value(1, 1), 4.25);
  EXPECT_EQ(Data.label(0), 0u);
  EXPECT_EQ(Data.label(1), 2u);
  EXPECT_EQ(Data.row(1)[1], 4.25f);
}

TEST(DatasetTest, Figure2DatasetShape) {
  Dataset Data = figure2Dataset();
  EXPECT_EQ(Data.numRows(), 13u);
  EXPECT_EQ(Data.numFeatures(), 1u);
  EXPECT_EQ(Data.numClasses(), 2u);
  std::vector<uint32_t> Counts = classCounts(Data, allRows(Data));
  EXPECT_EQ(Counts[0], 7u); // white
  EXPECT_EQ(Counts[1], 6u); // black
}

TEST(DatasetTest, AllRowsAndClassCounts) {
  Dataset Data = figure2Dataset();
  RowIndexList Rows = allRows(Data);
  ASSERT_EQ(Rows.size(), 13u);
  EXPECT_TRUE(isCanonicalRowSet(Rows));
  // Counts over a subset.
  RowIndexList Subset = {0, 1, 4}; // black, white, black
  std::vector<uint32_t> Counts = classCounts(Data, Subset);
  EXPECT_EQ(Counts[0], 1u);
  EXPECT_EQ(Counts[1], 2u);
}

TEST(DatasetTest, CanonicalRowSetDetection) {
  EXPECT_TRUE(isCanonicalRowSet({}));
  EXPECT_TRUE(isCanonicalRowSet({3}));
  EXPECT_TRUE(isCanonicalRowSet({1, 2, 9}));
  EXPECT_FALSE(isCanonicalRowSet({2, 1}));
  EXPECT_FALSE(isCanonicalRowSet({1, 1}));
}

TEST(RowSetOpsTest, DifferenceSize) {
  RowIndexList A = {1, 3, 5, 7};
  RowIndexList B = {3, 4, 7, 9};
  EXPECT_EQ(rowSetDifferenceSize(A, B), 2u); // {1, 5}
  EXPECT_EQ(rowSetDifferenceSize(B, A), 2u); // {4, 9}
  EXPECT_EQ(rowSetDifferenceSize(A, A), 0u);
  EXPECT_EQ(rowSetDifferenceSize(A, {}), 4u);
  EXPECT_EQ(rowSetDifferenceSize({}, A), 0u);
}

TEST(RowSetOpsTest, UnionIntersection) {
  RowIndexList A = {1, 3, 5};
  RowIndexList B = {3, 4};
  EXPECT_EQ(rowSetUnion(A, B), (RowIndexList{1, 3, 4, 5}));
  EXPECT_EQ(rowSetIntersection(A, B), (RowIndexList{3}));
  EXPECT_EQ(rowSetUnion(A, {}), A);
  EXPECT_EQ(rowSetIntersection(A, {}), RowIndexList{});
}

TEST(RowSetOpsTest, Includes) {
  RowIndexList A = {1, 3};
  RowIndexList B = {1, 2, 3};
  EXPECT_TRUE(rowSetIncludes(A, B));
  EXPECT_FALSE(rowSetIncludes(B, A));
  EXPECT_TRUE(rowSetIncludes({}, A));
  EXPECT_TRUE(rowSetIncludes(A, A));
}

TEST(RowSetOpsTest, RandomizedAlgebra) {
  Rng R(99);
  for (int Trial = 0; Trial < 100; ++Trial) {
    RowIndexList A, B;
    for (uint32_t I = 0; I < 20; ++I) {
      if (R.bernoulli(0.4))
        A.push_back(I);
      if (R.bernoulli(0.4))
        B.push_back(I);
    }
    RowIndexList U = rowSetUnion(A, B);
    RowIndexList X = rowSetIntersection(A, B);
    EXPECT_EQ(U.size(), A.size() + B.size() - X.size());
    EXPECT_EQ(rowSetDifferenceSize(A, B), A.size() - X.size());
    EXPECT_TRUE(rowSetIncludes(X, A));
    EXPECT_TRUE(rowSetIncludes(X, B));
    EXPECT_TRUE(rowSetIncludes(A, U));
    EXPECT_TRUE(rowSetIncludes(B, U));
  }
}

//===----------------------------------------------------------------------===//
// CSV I/O
//===----------------------------------------------------------------------===//

TEST(CsvTest, ParseSimple) {
  CsvLoadResult Result = parseCsvDataset("1.5,0,0\n2.5,1,1\n# comment\n\n");
  ASSERT_TRUE(Result.succeeded()) << Result.Error;
  const Dataset &Data = *Result.Data;
  EXPECT_EQ(Data.numRows(), 2u);
  EXPECT_EQ(Data.numFeatures(), 2u);
  EXPECT_EQ(Data.numClasses(), 2u);
  EXPECT_DOUBLE_EQ(Data.value(1, 0), 2.5);
  EXPECT_EQ(Data.label(1), 1u);
}

TEST(CsvTest, InfersBooleanColumns) {
  CsvLoadResult Result = parseCsvDataset("0,3.5,0\n1,2.0,1\n0,1.0,0\n");
  ASSERT_TRUE(Result.succeeded()) << Result.Error;
  EXPECT_EQ(Result.Data->schema().FeatureKinds[0], FeatureKind::Boolean);
  EXPECT_EQ(Result.Data->schema().FeatureKinds[1], FeatureKind::Real);
}

TEST(CsvTest, RejectsMalformedRows) {
  EXPECT_FALSE(parseCsvDataset("1,2,notanumber\n").succeeded());
  EXPECT_FALSE(parseCsvDataset("1,2,0\n1,0\n").succeeded());
  EXPECT_FALSE(parseCsvDataset("1,2,-1\n").succeeded());
  EXPECT_FALSE(parseCsvDataset("1,2,0.5\n").succeeded());
  EXPECT_FALSE(parseCsvDataset("").succeeded());
  EXPECT_FALSE(parseCsvDataset("5\n").succeeded());
}

TEST(CsvTest, SchemaValidation) {
  DatasetSchema Schema = DatasetSchema::uniform(2, FeatureKind::Real, 2);
  CsvLoadResult Ok = parseCsvDataset("1,2,1\n", Schema);
  EXPECT_TRUE(Ok.succeeded()) << Ok.Error;
  // Label out of the schema's class range.
  EXPECT_FALSE(parseCsvDataset("1,2,2\n", Schema).succeeded());
}

TEST(CsvTest, RoundTrip) {
  Dataset Original = figure2Dataset();
  std::string Text = writeCsvDataset(Original);
  CsvLoadResult Reloaded = parseCsvDataset(Text);
  ASSERT_TRUE(Reloaded.succeeded()) << Reloaded.Error;
  ASSERT_EQ(Reloaded.Data->numRows(), Original.numRows());
  ASSERT_EQ(Reloaded.Data->numFeatures(), Original.numFeatures());
  for (unsigned Row = 0; Row < Original.numRows(); ++Row) {
    EXPECT_EQ(Reloaded.Data->label(Row), Original.label(Row));
    for (unsigned F = 0; F < Original.numFeatures(); ++F)
      EXPECT_DOUBLE_EQ(Reloaded.Data->value(Row, F), Original.value(Row, F));
  }
}

TEST(CsvTest, FileRoundTrip) {
  Dataset Original = figure2Dataset();
  std::string Path = ::testing::TempDir() + "/antidote_csv_test.csv";
  std::string Error;
  ASSERT_TRUE(saveCsvDataset(Original, Path, Error)) << Error;
  CsvLoadResult Reloaded = loadCsvDataset(Path);
  ASSERT_TRUE(Reloaded.succeeded()) << Reloaded.Error;
  EXPECT_EQ(Reloaded.Data->numRows(), Original.numRows());
  std::remove(Path.c_str());
}

TEST(CsvTest, LoadMissingFileFails) {
  CsvLoadResult Result = loadCsvDataset("/nonexistent/path/data.csv");
  EXPECT_FALSE(Result.succeeded());
  EXPECT_FALSE(Result.Error.empty());
}

TEST(CsvLineEndingTest, CrlfParsesIdenticalToLf) {
  const std::string Lf = "1.5,2.5,0\n3.5,4.5,1\n";
  const std::string Crlf = "1.5,2.5,0\r\n3.5,4.5,1\r\n";
  CsvLoadResult A = parseCsvDataset(Lf);
  CsvLoadResult B = parseCsvDataset(Crlf);
  ASSERT_TRUE(A.succeeded()) << A.Error;
  ASSERT_TRUE(B.succeeded()) << B.Error;
  ASSERT_EQ(A.Data->numRows(), B.Data->numRows());
  ASSERT_EQ(A.Data->numFeatures(), B.Data->numFeatures());
  for (unsigned Row = 0; Row < A.Data->numRows(); ++Row) {
    EXPECT_EQ(A.Data->label(Row), B.Data->label(Row)) << "row " << Row;
    for (unsigned F = 0; F < A.Data->numFeatures(); ++F)
      EXPECT_EQ(A.Data->value(Row, F), B.Data->value(Row, F))
          << "row " << Row << ", feature " << F;
  }
}

TEST(CsvLineEndingTest, CrlfDoesNotChangeBooleanInference) {
  // A '\r' riding along on the last cell must not turn a {0,1} column
  // real (the last column is the label; the second feature is all-{0,1}).
  CsvLoadResult R = parseCsvDataset("0.5,1,0\r\n2.5,0,1\r\n");
  ASSERT_TRUE(R.succeeded()) << R.Error;
  EXPECT_EQ(R.Data->schema().FeatureKinds[0], FeatureKind::Real);
  EXPECT_EQ(R.Data->schema().FeatureKinds[1], FeatureKind::Boolean);
}

TEST(CsvLineEndingTest, TrailingBlankLinesCreateNoPhantomRows) {
  for (const std::string &Text :
       {std::string("1,2,0\n3,4,1\n\n"), std::string("1,2,0\n3,4,1\n\n\n"),
        std::string("1,2,0\r\n3,4,1\r\n\r\n"),
        std::string("1,2,0\n3,4,1\n   \n\t\n")}) {
    CsvLoadResult R = parseCsvDataset(Text);
    ASSERT_TRUE(R.succeeded()) << R.Error;
    EXPECT_EQ(R.Data->numRows(), 2u) << "text: " << Text;
  }
}

TEST(CsvLineEndingTest, StrayInteriorCarriageReturnIsAnError) {
  // Previously a mid-line '\r' silently truncated the row at that point.
  CsvLoadResult R = parseCsvDataset("1.0\r2.0,3.0,0\n");
  EXPECT_FALSE(R.succeeded());
  EXPECT_NE(R.Error.find("carriage return"), std::string::npos) << R.Error;
}

TEST(CsvLineEndingTest, RaggedRowsAreAnErrorNotATruncation) {
  CsvLoadResult Short = parseCsvDataset("1,2,3,0\n1,2,0\n");
  EXPECT_FALSE(Short.succeeded());
  EXPECT_NE(Short.Error.find("expected 3 features"), std::string::npos)
      << Short.Error;

  CsvLoadResult Trailing = parseCsvDataset("1,2,0\n3,4,\n");
  EXPECT_FALSE(Trailing.succeeded());
  EXPECT_NE(Trailing.Error.find("trailing comma"), std::string::npos)
      << Trailing.Error;
}
