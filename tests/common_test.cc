#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>

#include "common/csv.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace rpas {
namespace {

// ---------------------------------------------------------------- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIoError), "IoError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "ResourceExhausted");
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    RPAS_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(StatusTest, ReturnIfErrorPassesThroughOk) {
  auto succeeds = []() -> Status { return Status::OK(); };
  auto wrapper = [&]() -> Status {
    RPAS_RETURN_IF_ERROR(succeeds());
    return Status::Internal("reached end");
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Result ---

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) {
      return Status::Internal("boom");
    }
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    RPAS_ASSIGN_OR_RETURN(int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(outer(false).value(), 10);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInternal);
}

// --------------------------------------------------------------- Strings ---

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = StrSplit("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleField) {
  auto parts = StrSplit("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(StrTrim("  x  "), "x");
  EXPECT_EQ(StrTrim("\t\ny\r "), "y");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringsTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble(" -2e3 ").value(), -2000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("0").value(), 0.0);
}

TEST(StringsTest, ParseDoubleInvalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.2x").ok());
}

TEST(StringsTest, ParseInt64Valid) {
  EXPECT_EQ(ParseInt64("123").value(), 123);
  EXPECT_EQ(ParseInt64(" -45 ").value(), -45);
}

TEST(StringsTest, ParseInt64Invalid) {
  EXPECT_FALSE(ParseInt64("12.5").ok());
  EXPECT_FALSE(ParseInt64("").ok());
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foo", "foobar"));
  EXPECT_TRUE(StartsWith("x", ""));
}

// ------------------------------------------------------------------- RNG ---

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.Normal();
    sum += z;
    sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(10), 10u);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(19);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.UniformInt(8)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);  // expected 1000 each
    EXPECT_LT(c, 1200);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(2.0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, GammaMeanAndVariance) {
  Rng rng(29);
  const double shape = 3.0;
  const double scale = 2.0;
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gamma(shape, scale);
    EXPECT_GT(g, 0.0);
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, shape * scale, 0.1);         // 6.0
  EXPECT_NEAR(var, shape * scale * scale, 0.5);  // 12.0
}

TEST(RngTest, GammaSmallShape) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gamma(0.5, 1.0);
    EXPECT_GE(g, 0.0);
    sum += g;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(RngTest, StudentTSymmetricHeavyTails) {
  Rng rng(37);
  const int n = 100000;
  double sum = 0.0;
  int beyond3 = 0;
  for (int i = 0; i < n; ++i) {
    const double t = rng.StudentT(4.0);
    sum += t;
    if (std::fabs(t) > 3.0) {
      ++beyond3;
    }
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  // P(|t_4| > 3) ~ 0.04; Gaussian would be ~0.0027.
  EXPECT_GT(static_cast<double>(beyond3) / n, 0.01);
}

TEST(RngTest, ParetoMinimumRespected) {
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, PoissonMean) {
  Rng rng(43);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Poisson(3.0);
  }
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(47);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const int k = rng.Poisson(100.0);
    EXPECT_GE(k, 0);
    sum += k;
  }
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(RngTest, ForkIsIndependentOfPosition) {
  Rng a(99);
  Rng b(99);
  b.NextUint64();  // advance b
  Rng fa = a.Fork(5);
  Rng fb = b.Fork(5);
  EXPECT_EQ(fa.NextUint64(), fb.NextUint64());
}

TEST(RngTest, ForkStreamsDiffer) {
  Rng a(99);
  Rng f1 = a.Fork(1);
  Rng f2 = a.Fork(2);
  EXPECT_NE(f1.NextUint64(), f2.NextUint64());
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(53);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

/// FNV-1a over the bytes of draws i = 0..4999 from Rng(2024).
uint64_t HashDraws(const std::function<double(Rng&, int)>& draw) {
  Rng rng(2024);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (int i = 0; i < 5000; ++i) {
    const double v = draw(rng, i);
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (unsigned char b : bytes) {
      hash = (hash ^ b) * 0x100000001b3ull;
    }
  }
  return hash;
}

TEST(RngTest, StreamsPinnedBitForBit) {
  // Traces, fault schedules and DeepAR's draws all read these streams, so
  // a rewrite of the generator or of a distribution must reproduce the
  // exact bytes. The hashes were taken before NextUint64, Uniform and
  // Normal moved into the header and before Gamma kept its Marsaglia–Tsang
  // constants while the shape repeats; the alternating shapes check that
  // a new shape recomputes them.
  struct Case {
    const char* name;
    std::function<double(Rng&, int)> draw;
    uint64_t hash;
  };
  const Case cases[] = {
      {"Normal", [](Rng& r, int) { return r.Normal(); },
       0xc76bdb736ef6a9a5ull},
      {"Uniform", [](Rng& r, int) { return r.Uniform(); },
       0x53607faeed34fd9eull},
      {"Exponential(1.5)", [](Rng& r, int) { return r.Exponential(1.5); },
       0x8ceb61f5048dad8bull},
      {"Pareto(2, 1.5)", [](Rng& r, int) { return r.Pareto(2.0, 1.5); },
       0x32aae491e645b758ull},
      {"Gamma(0.5, 2)", [](Rng& r, int) { return r.Gamma(0.5, 2.0); },
       0x8242ab4ff6664993ull},
      {"Gamma(1.5, 2)", [](Rng& r, int) { return r.Gamma(1.5, 2.0); },
       0xc2a435f4c9729e66ull},
      {"Gamma(4, 0.5)", [](Rng& r, int) { return r.Gamma(4.0, 0.5); },
       0x1561a22811d9c02bull},
      {"StudentT(3)", [](Rng& r, int) { return r.StudentT(3.0); },
       0xc6ae71baf2dabbfeull},
      {"Gamma shapes 1.5, 4, 0.5 in turn",
       [](Rng& r, int i) {
         const double shapes[] = {1.5, 4.0, 0.5};
         return r.Gamma(shapes[i % 3], 1.0);
       },
       0x4f969da37665acdfull},
      {"Normal then Uniform",
       [](Rng& r, int) {
         const double z = r.Normal();
         return z + r.Uniform();
       },
       0xfea77e448e36ec2aull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(HashDraws(c.draw), c.hash) << c.name;
  }
}

// ------------------------------------------------------------------- CSV ---

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rpas_csv_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_str() const { return path_.string(); }
  std::filesystem::path path_;
};

TEST_F(CsvTest, RoundTrip) {
  CsvTable table;
  table.header = {"step", "value"};
  table.rows = {{"0", "1.5"}, {"1", "2.25"}};
  ASSERT_TRUE(WriteCsv(path_str(), table).ok());
  auto loaded = ReadCsv(path_str());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->header, table.header);
  EXPECT_EQ(loaded->rows, table.rows);
}

TEST_F(CsvTest, NumericColumn) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "10.5"}, {"2", "20.5"}};
  ASSERT_TRUE(WriteCsv(path_str(), table).ok());
  auto loaded = ReadCsv(path_str());
  ASSERT_TRUE(loaded.ok());
  auto col = CsvNumericColumn(*loaded, "b");
  ASSERT_TRUE(col.ok());
  ASSERT_EQ(col->size(), 2u);
  EXPECT_DOUBLE_EQ((*col)[0], 10.5);
  EXPECT_DOUBLE_EQ((*col)[1], 20.5);
}

TEST_F(CsvTest, NonFiniteCellNamesColumnRowAndText) {
  for (const char* cell : {"nan", "inf", "-Infinity", "NaN"}) {
    SCOPED_TRACE(cell);
    CsvTable table;
    table.header = {"a", "b"};
    table.rows = {{"1", "10.5"}, {"2", cell}, {"3", "1"}};
    auto col = CsvNumericColumn(table, "b");
    ASSERT_EQ(col.status().code(), StatusCode::kInvalidArgument);
    const std::string message = col.status().message();
    EXPECT_NE(message.find("column 'b'"), std::string::npos) << message;
    EXPECT_NE(message.find("data row 2"), std::string::npos) << message;
    EXPECT_NE(message.find(std::string("'") + cell + "'"), std::string::npos)
        << message;
  }
}

TEST_F(CsvTest, MalformedCellNamesColumnRowAndText) {
  CsvTable table;
  table.header = {"a"};
  table.rows = {{"1"}, {"2"}, {"1.2x"}};
  auto col = CsvNumericColumn(table, "a");
  ASSERT_EQ(col.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(col.status().message().find("column 'a', data row 3: '1.2x'"),
            std::string::npos)
      << col.status().message();
}

TEST_F(CsvTest, MissingColumnIsNotFound) {
  CsvTable table;
  table.header = {"a"};
  table.rows = {{"1"}};
  EXPECT_EQ(CsvNumericColumn(table, "zzz").status().code(),
            StatusCode::kNotFound);
}

TEST_F(CsvTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadCsv("/nonexistent/file.csv").status().code(),
            StatusCode::kIoError);
}

TEST_F(CsvTest, RaggedRowRejected) {
  {
    std::FILE* f = std::fopen(path_str().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("a,b\n1,2\n3\n", f);
    std::fclose(f);
  }
  EXPECT_EQ(ReadCsv(path_str()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, ColumnIndexLookup) {
  CsvTable table;
  table.header = {"x", "y", "z"};
  EXPECT_EQ(table.ColumnIndex("y"), 1);
  EXPECT_EQ(table.ColumnIndex("nope"), -1);
}

TEST_F(CsvTest, CrlfLineEndingsAccepted) {
  {
    std::FILE* f = std::fopen(path_str().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("a,b\r\n1,2\r\n3,4\r\n", f);
    std::fclose(f);
  }
  auto loaded = ReadCsv(path_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(loaded->rows.size(), 2u);
  EXPECT_EQ(loaded->rows[1], (std::vector<std::string>{"3", "4"}));
}

TEST_F(CsvTest, QuotedFieldMayContainCommas) {
  {
    std::FILE* f = std::fopen(path_str().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("name,value\n\"cpu,max\",3.5\nplain,4\n", f);
    std::fclose(f);
  }
  auto loaded = ReadCsv(path_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->rows.size(), 2u);
  EXPECT_EQ(loaded->rows[0][0], "cpu,max");
  EXPECT_EQ(loaded->rows[0][1], "3.5");
  EXPECT_EQ(loaded->rows[1][0], "plain");
}

TEST_F(CsvTest, DoubledQuoteDecodesToLiteralQuote) {
  {
    std::FILE* f = std::fopen(path_str().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("msg\n\"say \"\"hi\"\", then leave\"\n", f);
    std::fclose(f);
  }
  auto loaded = ReadCsv(path_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->rows.size(), 1u);
  EXPECT_EQ(loaded->rows[0][0], "say \"hi\", then leave");
}

TEST_F(CsvTest, QuotedFieldsPreserveWhitespaceUnquotedAreTrimmed) {
  {
    std::FILE* f = std::fopen(path_str().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("a,b\n\"  padded  \",  trimmed  \n", f);
    std::fclose(f);
  }
  auto loaded = ReadCsv(path_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rows[0][0], "  padded  ");
  EXPECT_EQ(loaded->rows[0][1], "trimmed");
}

TEST_F(CsvTest, UnterminatedQuoteRejected) {
  {
    std::FILE* f = std::fopen(path_str().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("a\n\"never closed\n", f);
    std::fclose(f);
  }
  EXPECT_EQ(ReadCsv(path_str()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, TextAfterClosingQuoteRejected) {
  {
    std::FILE* f = std::fopen(path_str().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("a\n\"x\"junk\n", f);
    std::fclose(f);
  }
  EXPECT_EQ(ReadCsv(path_str()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, WriterQuotesFieldsThatNeedIt) {
  CsvTable table;
  table.header = {"name", "note"};
  table.rows = {{"cpu,max", "has \"quotes\""}, {"plain", "  padded  "}};
  ASSERT_TRUE(WriteCsv(path_str(), table).ok());
  auto loaded = ReadCsv(path_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->header, table.header);
  EXPECT_EQ(loaded->rows, table.rows);
}

TEST(CsvRecordTest, SplitHandlesEmptyAndQuotedEmptyFields) {
  auto fields = SplitCsvRecord("a,,\"\",d");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields,
            (std::vector<std::string>{"a", "", "", "d"}));
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(61);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Poisson(0.0), 0);
  }
}

TEST(RngTest, NormalZeroStddevIsMean) {
  Rng rng(67);
  EXPECT_DOUBLE_EQ(rng.Normal(5.0, 0.0), 5.0);
}

TEST(RngTest, UniformIntOfOneIsZero) {
  Rng rng(71);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(1), 0u);
  }
}

TEST(StatusTest, CopyPreservesState) {
  Status original = Status::OutOfRange("limit");
  Status copy = original;
  EXPECT_EQ(copy.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(copy.message(), "limit");
  EXPECT_EQ(original.code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, CopyableResultSupportsReassignment) {
  Result<int> r(1);
  r = Result<int>(Status::Internal("x"));
  EXPECT_FALSE(r.ok());
  r = Result<int>(7);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
}

// -------------------------------------------------------------- Stopwatch ---

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  // Burn some cycles.
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) {
    x += std::sqrt(static_cast<double>(i));
  }
  const double first = sw.ElapsedMillis();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(sw.ElapsedMillis(), first);  // monotonic
}

TEST(StopwatchTest, ResetRestarts) {
  Stopwatch sw;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) {
    x += std::sqrt(static_cast<double>(i));
  }
  const double before = sw.ElapsedMillis();
  sw.Reset();
  EXPECT_LE(sw.ElapsedMillis(), before + 1.0);
}

}  // namespace
}  // namespace rpas
