// Unit tests for matrix/label/dataset persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "data/synthetic.h"
#include "io/dataset_io.h"
#include "io/matrix_io.h"
#include "matrix_oracles.h"
#include "util/rng.h"

namespace rhchme {
namespace io {
namespace {

using testing_reference::MaxAbsDiff;

namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "rhchme_io_test";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(IoTest, MatrixCsvRoundTrip) {
  Rng rng(1);
  la::Matrix m = la::Matrix::RandomNormal(7, 5, &rng);
  ASSERT_TRUE(WriteMatrixCsv(m, Path("m.csv")).ok());
  Result<la::Matrix> back = ReadMatrixCsv(Path("m.csv"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(MaxAbsDiff(back.value(), m), 1e-12);
}

TEST_F(IoTest, MatrixCsvRejectsRaggedAndGarbage) {
  {
    std::ofstream f(Path("ragged.csv"));
    f << "1,2,3\n1,2\n";
  }
  EXPECT_FALSE(ReadMatrixCsv(Path("ragged.csv")).ok());
  {
    std::ofstream f(Path("garbage.csv"));
    f << "1,2\nfoo,3\n";
  }
  EXPECT_FALSE(ReadMatrixCsv(Path("garbage.csv")).ok());
  {
    std::ofstream f(Path("empty.csv"));
  }
  EXPECT_FALSE(ReadMatrixCsv(Path("empty.csv")).ok());
  EXPECT_FALSE(ReadMatrixCsv(Path("missing.csv")).ok());
}

TEST_F(IoTest, MatrixCsvSkipsEmptyLines) {
  {
    std::ofstream f(Path("gaps.csv"));
    f << "1,2\n\n3,4\n";
  }
  Result<la::Matrix> m = ReadMatrixCsv(Path("gaps.csv"));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().rows(), 2u);
  EXPECT_EQ(m.value()(1, 1), 4.0);
}

TEST_F(IoTest, MatrixBinaryRoundTripIsExact) {
  Rng rng(2);
  la::Matrix m = la::Matrix::RandomNormal(11, 13, &rng);
  m(0, 0) = 1e-300;  // Exact round-trip even for extreme values.
  m(1, 1) = -1e300;
  ASSERT_TRUE(WriteMatrixBinary(m, Path("m.bin")).ok());
  Result<la::Matrix> back = ReadMatrixBinary(Path("m.bin"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(MaxAbsDiff(back.value(), m), 0.0);
}

TEST_F(IoTest, MatrixBinaryRejectsCorruption) {
  {
    std::ofstream f(Path("bad.bin"), std::ios::binary);
    f << "NOPE";
  }
  EXPECT_FALSE(ReadMatrixBinary(Path("bad.bin")).ok());
  // Truncated payload.
  Rng rng(3);
  la::Matrix m = la::Matrix::RandomNormal(4, 4, &rng);
  ASSERT_TRUE(WriteMatrixBinary(m, Path("trunc.bin")).ok());
  fs::resize_file(Path("trunc.bin"), 40);
  EXPECT_FALSE(ReadMatrixBinary(Path("trunc.bin")).ok());
}

TEST_F(IoTest, MatrixBinaryRejectsOverflowingShape) {
  // rows = cols = 2³³ makes rows·cols wrap to zero in 64 bits; the header
  // guard must reject each factor before multiplying instead of letting
  // the wrapped product slip past and trigger a huge allocation.
  {
    std::ofstream f(Path("overflow.bin"), std::ios::binary);
    f.write("RHM1", 4);
    const uint64_t rows = 1ull << 33, cols = 1ull << 33;
    f.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    f.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
  }
  Result<la::Matrix> r = ReadMatrixBinary(Path("overflow.bin"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("implausible shape"), std::string::npos);
}

TEST_F(IoTest, MatrixBinaryRejectsShortHeader) {
  {
    std::ofstream f(Path("short.bin"), std::ios::binary);
    f.write("RHM1", 4);
    const uint64_t rows = 3;  // cols missing entirely.
    f.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
  }
  Result<la::Matrix> r = ReadMatrixBinary(Path("short.bin"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("truncated header"), std::string::npos);
}

TEST_F(IoTest, LabelsRoundTrip) {
  std::vector<std::size_t> labels = {3, 0, 0, 7, 2};
  ASSERT_TRUE(WriteLabels(labels, Path("y.txt")).ok());
  Result<std::vector<std::size_t>> back = ReadLabels(Path("y.txt"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), labels);
}

TEST_F(IoTest, LabelsRejectGarbage) {
  {
    std::ofstream f(Path("bad.txt"));
    f << "1\nxyz\n";
  }
  EXPECT_FALSE(ReadLabels(Path("bad.txt")).ok());
}

TEST_F(IoTest, LabelsRejectTrailingJunkWithLineNumber) {
  // std::stoul alone would parse "3abc" as 3; the strict parser rejects
  // it and names the offending line.
  {
    std::ofstream f(Path("junk.txt"));
    f << "1\n2\n3abc\n";
  }
  Result<std::vector<std::size_t>> r = ReadLabels(Path("junk.txt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
}

TEST_F(IoTest, LabelsRejectNegativeValues) {
  // "-1" would wrap to a huge size_t through std::stoul.
  {
    std::ofstream f(Path("neg.txt"));
    f << "0\n-1\n";
  }
  Result<std::vector<std::size_t>> r = ReadLabels(Path("neg.txt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST_F(IoTest, LabelsAcceptWindowsLineEndingsAndPadding) {
  {
    std::ofstream f(Path("crlf.txt"), std::ios::binary);
    f << "3\r\n 0 \r\n\r\n7\n";
  }
  Result<std::vector<std::size_t>> r = ReadLabels(Path("crlf.txt"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), (std::vector<std::size_t>{3, 0, 7}));
}

TEST_F(IoTest, LabelsRejectOutOfRangeValues) {
  {
    std::ofstream f(Path("huge.txt"));
    f << "123456789012345678901234567890\n";  // > 2⁶⁴.
  }
  Result<std::vector<std::size_t>> r = ReadLabels(Path("huge.txt"));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
}

TEST_F(IoTest, DatasetRoundTrip) {
  data::SyntheticCorpusOptions gen;
  gen.docs_per_class = {8, 8};
  gen.n_terms = 30;
  gen.n_concepts = 20;
  gen.topics_per_class = 2;
  gen.core_terms_per_topic = 4;
  gen.seed = 9;
  data::MultiTypeRelationalData original =
      data::GenerateSyntheticCorpus(gen).value();

  const std::string ds = Path("dataset");
  ASSERT_TRUE(SaveDataset(original, ds).ok());
  Result<data::MultiTypeRelationalData> back = LoadDataset(ds);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  ASSERT_EQ(back.value().NumTypes(), original.NumTypes());
  for (std::size_t k = 0; k < original.NumTypes(); ++k) {
    EXPECT_EQ(back.value().Type(k).name, original.Type(k).name);
    EXPECT_EQ(back.value().Type(k).count, original.Type(k).count);
    EXPECT_EQ(back.value().Type(k).clusters, original.Type(k).clusters);
    EXPECT_EQ(back.value().Type(k).labels, original.Type(k).labels);
    EXPECT_EQ(MaxAbsDiff(back.value().Type(k).features,
                             original.Type(k).features),
              0.0);
  }
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t l = k + 1; l < 3; ++l) {
      ASSERT_EQ(back.value().HasRelation(k, l), original.HasRelation(k, l));
      if (original.HasRelation(k, l)) {
        EXPECT_EQ(MaxAbsDiff(back.value().Relation(k, l),
                                 original.Relation(k, l)),
                  0.0);
      }
    }
  }
}

TEST_F(IoTest, LoadDatasetFailsOnMissingDir) {
  EXPECT_FALSE(LoadDataset(Path("nope")).ok());
}

TEST_F(IoTest, SaveDatasetRejectsInvalidData) {
  data::MultiTypeRelationalData bad;  // No types.
  EXPECT_FALSE(SaveDataset(bad, Path("bad")).ok());
}

}  // namespace
}  // namespace io
}  // namespace rhchme
