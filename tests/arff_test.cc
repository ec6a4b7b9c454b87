#include "data/arff.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace pafeat {
namespace {

constexpr const char* kSmallArff = R"(% A Mulan-style dataset
@relation toy

@attribute feat_a numeric
@attribute 'feat b' real
@attribute feat_c integer
@attribute label1 {0,1}
@attribute label2 {0,1}

@data
1.5,2.0,3,1,0
-0.5,0.25,7,0,1
0.0,?,2,1,1
)";

TEST(ArffParseTest, ParsesHeaderAndData) {
  const auto document = ParseArff(kSmallArff);
  ASSERT_TRUE(document.has_value());
  EXPECT_EQ(document->relation, "toy");
  ASSERT_EQ(document->attribute_names.size(), 5u);
  EXPECT_EQ(document->attribute_names[1], "feat b");  // quoted name
  EXPECT_TRUE(document->nominal_values[0].empty());   // numeric
  EXPECT_EQ(document->nominal_values[3],
            (std::vector<std::string>{"0", "1"}));
  ASSERT_EQ(document->values.rows(), 3);
  EXPECT_FLOAT_EQ(document->values.At(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(document->values.At(1, 2), 7.0f);
  EXPECT_FLOAT_EQ(document->values.At(2, 1), 0.0f);  // missing '?' -> 0
  EXPECT_FLOAT_EQ(document->values.At(1, 4), 1.0f);
}

TEST(ArffParseTest, ParsesSparseRows) {
  const std::string text =
      "@relation sparse\n"
      "@attribute a numeric\n"
      "@attribute b numeric\n"
      "@attribute c numeric\n"
      "@data\n"
      "{0 2.5, 2 1}\n"
      "{}\n"
      "{1 -3}\n";
  const auto document = ParseArff(text);
  ASSERT_TRUE(document.has_value());
  ASSERT_EQ(document->values.rows(), 3);
  EXPECT_FLOAT_EQ(document->values.At(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(document->values.At(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(document->values.At(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(document->values.At(1, 0), 0.0f);  // empty sparse row
  EXPECT_FLOAT_EQ(document->values.At(2, 1), -3.0f);
}

TEST(ArffParseTest, NominalValuesMapToIndices) {
  const std::string text =
      "@relation colors\n"
      "@attribute hue {red, green, blue}\n"
      "@attribute y {0,1}\n"
      "@data\n"
      "green,1\n"
      "blue,0\n";
  const auto document = ParseArff(text);
  ASSERT_TRUE(document.has_value());
  EXPECT_FLOAT_EQ(document->values.At(0, 0), 1.0f);  // green
  EXPECT_FLOAT_EQ(document->values.At(1, 0), 2.0f);  // blue
}

TEST(ArffParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseArff("").has_value());
  EXPECT_FALSE(ParseArff("@data\n1,2\n").has_value());  // no attributes
  EXPECT_FALSE(ParseArff("@relation x\n@attribute a numeric\n@data\n1,2\n")
                   .has_value());  // wrong cell count
  EXPECT_FALSE(ParseArff("@relation x\n@attribute a date\n@data\n1\n")
                   .has_value());  // unsupported type
  EXPECT_FALSE(ParseArff("@relation x\n@attribute a numeric\n@data\nxyz\n")
                   .has_value());  // non-numeric cell
  EXPECT_FALSE(
      ParseArff("@relation x\n@attribute a numeric\n@data\n{5 1}\n")
          .has_value());  // sparse index out of range
  EXPECT_FALSE(ParseArff("@relation x\n@attribute a numeric\n@data\n"
                         "{4294967296 5.0}\n")
                   .has_value());  // beyond int range, not wrapped to 0
}

TEST(ArffParseTest, RejectsNonFiniteAndOutOfRangeCells) {
  const std::string header = "@relation x\n@attribute a numeric\n@data\n";
  for (const char* cell : {"nan", "inf", "-inf", "1e39", "-1e39", "1e400"}) {
    EXPECT_FALSE(ParseArff(header + cell + "\n").has_value()) << cell;
    EXPECT_FALSE(ParseArff(header + "{0 " + cell + "}\n").has_value())
        << "sparse " << cell;
  }
  // A missing value still maps to 0.
  const auto document = ParseArff(header + "?\n");
  ASSERT_TRUE(document.has_value());
  EXPECT_EQ(document->values.At(0, 0), 0.0f);
}

TEST(ArffToTableTest, SplitsFeaturesAndLabels) {
  const auto document = ParseArff(kSmallArff);
  ASSERT_TRUE(document.has_value());
  const auto table = ArffToTable(*document, {"label1", "label2"});
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->num_features(), 3);
  EXPECT_EQ(table->num_labels(), 2);
  EXPECT_EQ(table->label_names()[0], "label1");
  EXPECT_FLOAT_EQ(table->labels().At(2, 1), 1.0f);
  EXPECT_FLOAT_EQ(table->features().At(0, 1), 2.0f);
}

TEST(ArffToTableTest, LastLabelsConvention) {
  const auto document = ParseArff(kSmallArff);
  ASSERT_TRUE(document.has_value());
  const auto table = ArffToTableLastLabels(*document, 2);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->num_features(), 3);
  EXPECT_EQ(table->num_labels(), 2);
  EXPECT_FALSE(ArffToTableLastLabels(*document, 0).has_value());
  EXPECT_FALSE(ArffToTableLastLabels(*document, 5).has_value());
}

TEST(ArffToTableTest, MissingLabelFails) {
  const auto document = ParseArff(kSmallArff);
  ASSERT_TRUE(document.has_value());
  EXPECT_FALSE(ArffToTable(*document, {"no_such_label"}).has_value());
}

TEST(ArffFileTest, RoundTripsThroughDisk) {
  const std::string path = ::testing::TempDir() + "/pafeat_test.arff";
  {
    std::ofstream out(path);
    out << kSmallArff;
  }
  const auto document = ReadArffFile(path);
  ASSERT_TRUE(document.has_value());
  EXPECT_EQ(document->values.rows(), 3);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadArffFile(path).has_value());
}

}  // namespace
}  // namespace pafeat
