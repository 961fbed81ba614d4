// Tests of the benchmark's own logic: the percentile helper and its
// ten-samples-beyond rule, span self time with overlapping children, and
// the seeded inputs (same seed, same bytes; different seed, different
// bytes). Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common.h"
#include "data/dataset.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7.0}, 99), 7.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
  EXPECT_EQ(Percentile({3, 1, 2, 4}, 50), 2);
}

TEST(PercentileTest, TenSamplesBeyondP99) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 99), 1u);
  EXPECT_EQ(SamplesBeyond(0, 99), 0u);
  EXPECT_EQ(SamplesBeyond(kMinQueries, 99), 10u);
  EXPECT_EQ(SamplesBeyond(kMinQueries - 1, 99), 9u);

  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  LatencySummary s = Summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p99, 989);  // rank 990: exactly ten samples above it
  EXPECT_EQ(s.beyond_p99, 10u);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  Tracer t(true);
  int root = t.Add("root", 1, -1, 0, 100);
  t.Add("a", 1, root, 10, 40);
  t.Add("b", 1, root, 30, 60);  // overlaps a by 10
  t.Add("c", 1, root, 60, 70);  // touches b
  t.Add("d", 1, root, 90, 130); // sticks out of the parent
  std::vector<double> self = SelfTimes(t.spans());
  // Covered: [10,70] + [90,100] = 70.
  EXPECT_DOUBLE_EQ(self[root], 30);
  EXPECT_DOUBLE_EQ(self[1], 30);
  EXPECT_DOUBLE_EQ(self[4], 40);
}

TEST(SelfTimeTest, NestedAndContainedChildren) {
  Tracer t(true);
  int root = t.Add("root", 1, -1, 0, 50);
  int mid = t.Add("mid", 1, root, 5, 45);
  t.Add("leaf", 1, mid, 10, 20);
  t.Add("inside", 1, root, 6, 8);  // inside mid: adds no coverage
  std::vector<double> self = SelfTimes(t.spans());
  EXPECT_DOUBLE_EQ(self[root], 10);
  EXPECT_DOUBLE_EQ(self[mid], 30);
  EXPECT_DOUBLE_EQ(self[2], 10);
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer t(false);
  EXPECT_EQ(t.Add("x", 1, -1, 0, 1), -1);
  EXPECT_TRUE(t.spans().empty());
}

std::string SchemaBytes(const colarm::Schema& schema) {
  std::string out;
  for (uint32_t a = 0; a < schema.num_attributes(); ++a) {
    out += schema.attribute(a).name + ":";
    for (const std::string& v : schema.attribute(a).values) out += v + ",";
  }
  return out;
}

// Byte image of a dataset: schema labels plus every cell.
std::string DatasetBytes(const colarm::Dataset& data) {
  const colarm::Schema& schema = data.schema();
  std::string out = SchemaBytes(schema);
  for (colarm::Tid t = 0; t < data.num_records(); ++t) {
    for (uint32_t a = 0; a < schema.num_attributes(); ++a) {
      out += std::to_string(data.Value(t, a)) + " ";
    }
  }
  return out;
}

colarm::Dataset Generate(Workload w, uint64_t seed) {
  return colarm::GenerateSynthetic(DatasetFor(w, seed).config).value();
}

std::string StreamBytes(Workload w, const colarm::Schema& schema,
                        uint64_t seed) {
  std::string out;
  switch (w) {
    case Workload::kExploreChess: {
      ExploreStream s(schema, seed);
      for (int i = 0; i < 20; ++i) {
        Session session = s.Next();
        out += std::to_string(session.analyst) + "\n";
        for (const std::string& q : session.queries) out += q + "\n";
      }
      break;
    }
    case Workload::kAdhocPumsb: {
      AdhocStream s(schema, seed);
      for (int i = 0; i < 200; ++i) out += s.Next() + "\n";
      break;
    }
    case Workload::kServeMushroom: {
      ServeStream s(schema, 4, seed);
      for (int i = 0; i < 300; ++i) {
        ServeRequest r = s.Next();
        out += std::to_string(r.tenant) + " " + r.Line() + "\n";
      }
      break;
    }
  }
  return out;
}

class SeededInputsTest : public ::testing::TestWithParam<Workload> {};

TEST_P(SeededInputsTest, SameSeedSameBytesOtherSeedOtherBytes) {
  const Workload w = GetParam();
  colarm::Dataset a = Generate(w, 11);
  colarm::Dataset b = Generate(w, 11);
  colarm::Dataset c = Generate(w, 12);
  EXPECT_EQ(DatasetBytes(a), DatasetBytes(b));
  EXPECT_NE(DatasetBytes(a), DatasetBytes(c));
  EXPECT_EQ(StreamBytes(w, a.schema(), 11), StreamBytes(w, b.schema(), 11));
  EXPECT_NE(StreamBytes(w, a.schema(), 11), StreamBytes(w, a.schema(), 12));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SeededInputsTest,
                         ::testing::Values(Workload::kExploreChess,
                                           Workload::kAdhocPumsb,
                                           Workload::kServeMushroom));

TEST(InputsTest, RestartsServeDistinctRelations) {
  EXPECT_EQ(RelationSeed(5, 0), RelationSeed(5, 0));
  EXPECT_NE(RelationSeed(5, 0), RelationSeed(5, 1));
  EXPECT_NE(RelationSeed(5, 0), RelationSeed(6, 0));
  colarm::Dataset a = Generate(Workload::kServeMushroom, RelationSeed(5, 0));
  colarm::Dataset b = Generate(Workload::kServeMushroom, RelationSeed(5, 1));
  EXPECT_NE(DatasetBytes(a), DatasetBytes(b));
  // Only the cells differ: the stream renders against one schema for all.
  EXPECT_EQ(SchemaBytes(a.schema()), SchemaBytes(b.schema()));
}

TEST(InputsTest, RecordCountsMatchTheAnalogs) {
  EXPECT_EQ(Generate(Workload::kExploreChess, 1).num_records(), 3196u);
  EXPECT_EQ(Generate(Workload::kAdhocPumsb, 1).num_records(), 12261u);
  EXPECT_EQ(Generate(Workload::kServeMushroom, 1).num_records(), 4062u);
}

TEST(InputsTest, AdhocBoxesNeverRepeat) {
  colarm::Dataset data = Generate(Workload::kAdhocPumsb, 3);
  AdhocStream s(data.schema(), 3);
  for (int i = 0; i < 2000; ++i) s.Next();
  EXPECT_EQ(s.distinct_boxes(), 2000u);
}

// A run longer than the box space lasts: every restart forgets the boxes
// of the one before (Next() exits the process if it finds no unused box).
TEST(InputsTest, AdhocStreamOutlastsItsBoxSpace) {
  colarm::Dataset data = Generate(Workload::kAdhocPumsb, 3);
  AdhocStream s(data.schema(), 3);
  for (int restart = 0; restart < 10; ++restart) {
    s.ForgetBoxes();
    for (int i = 0; i < 1000; ++i) s.Next();
    EXPECT_EQ(s.distinct_boxes(), 1000u);
  }
}

TEST(InputsTest, WorkloadNamesRoundTrip) {
  for (Workload w : {Workload::kExploreChess, Workload::kAdhocPumsb,
                     Workload::kServeMushroom}) {
    Workload parsed;
    ASSERT_TRUE(ParseWorkload(WorkloadName(w), &parsed));
    EXPECT_EQ(parsed, w);
  }
  Workload unused;
  EXPECT_FALSE(ParseWorkload("explore", &unused));
}

}  // namespace
}  // namespace perfbench
