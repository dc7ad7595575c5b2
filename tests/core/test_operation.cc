/**
 * @file
 * Unit tests for the operation enumeration.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/operation.hh"
#include "core/types.hh"

namespace swcc
{
namespace
{

TEST(OperationTest, AllOperationsListsEveryEnumeratorOnce)
{
    std::set<Operation> seen(kAllOperations.begin(), kAllOperations.end());
    EXPECT_EQ(seen.size(), kNumOperations);
}

TEST(OperationTest, IndicesAreDenseAndStable)
{
    for (std::size_t i = 0; i < kAllOperations.size(); ++i) {
        EXPECT_EQ(operationIndex(kAllOperations[i]), i);
    }
}

TEST(OperationTest, NamesMatchPaperTable1)
{
    EXPECT_EQ(operationName(Operation::InstrExec),
              "Instruction execution");
    EXPECT_EQ(operationName(Operation::CleanMissMem), "Clean miss (mem)");
    EXPECT_EQ(operationName(Operation::DirtyMissMem), "Dirty miss (mem)");
    EXPECT_EQ(operationName(Operation::ReadThrough), "Read through");
    EXPECT_EQ(operationName(Operation::WriteThrough), "Write through");
    EXPECT_EQ(operationName(Operation::CleanFlush), "Clean flush");
    EXPECT_EQ(operationName(Operation::DirtyFlush), "Dirty flush");
    EXPECT_EQ(operationName(Operation::WriteBroadcast), "Write broadcast");
    EXPECT_EQ(operationName(Operation::CleanMissCache),
              "Clean miss (cache)");
    EXPECT_EQ(operationName(Operation::DirtyMissCache),
              "Dirty miss (cache)");
    EXPECT_EQ(operationName(Operation::CycleSteal), "Cycle stealing");
}

TEST(OperationTest, MissVocabularyNamesTheFourMisses)
{
    static_assert(missOp(false, false) == Operation::CleanMissMem);
    static_assert(missOp(false, true) == Operation::DirtyMissMem);
    static_assert(missOp(true, false) == Operation::CleanMissCache);
    static_assert(missOp(true, true) == Operation::DirtyMissCache);
    std::set<Operation> misses;
    std::set<Operation> dirty;
    for (Operation op : kAllOperations) {
        if (isMiss(op)) {
            misses.insert(op);
        }
        if (isDirtyMiss(op)) {
            EXPECT_TRUE(isMiss(op)) << operationName(op);
            dirty.insert(op);
        }
    }
    EXPECT_EQ(misses, (std::set<Operation>{missOp(false, false),
                                           missOp(false, true),
                                           missOp(true, false),
                                           missOp(true, true)}));
    EXPECT_EQ(dirty, (std::set<Operation>{missOp(false, true),
                                          missOp(true, true)}));
}

TEST(OperationTest, NamesAreUnique)
{
    std::set<std::string_view> names;
    for (Operation op : kAllOperations) {
        names.insert(operationName(op));
    }
    EXPECT_EQ(names.size(), kNumOperations);
}

TEST(SchemeTest, NamesMatchPaper)
{
    EXPECT_EQ(schemeName(Scheme::Base), "Base");
    EXPECT_EQ(schemeName(Scheme::NoCache), "No-Cache");
    EXPECT_EQ(schemeName(Scheme::SoftwareFlush), "Software-Flush");
    EXPECT_EQ(schemeName(Scheme::Dragon), "Dragon");
    EXPECT_EQ(schemeName(Scheme::Mesi), "MESI");
    EXPECT_EQ(schemeName(Scheme::Mesif), "MESIF");
    EXPECT_EQ(schemeName(Scheme::Moesi), "MOESI");
    EXPECT_EQ(schemeName(Scheme::Hybrid), "Adaptive-Hybrid");
}

TEST(SchemeTest, OnlySnoopySchemesNeedABus)
{
    EXPECT_TRUE(schemeWorksOnNetwork(Scheme::Base));
    EXPECT_TRUE(schemeWorksOnNetwork(Scheme::NoCache));
    EXPECT_TRUE(schemeWorksOnNetwork(Scheme::SoftwareFlush));
    EXPECT_FALSE(schemeWorksOnNetwork(Scheme::Dragon));
    EXPECT_FALSE(schemeWorksOnNetwork(Scheme::Mesi));
    EXPECT_FALSE(schemeWorksOnNetwork(Scheme::Mesif));
    EXPECT_FALSE(schemeWorksOnNetwork(Scheme::Moesi));
    EXPECT_FALSE(schemeWorksOnNetwork(Scheme::Hybrid));
}

TEST(SchemeTest, PaperSchemesAreTheFirstFour)
{
    ASSERT_EQ(kPaperSchemes.size(), kNumPaperSchemes);
    for (std::size_t i = 0; i < kNumPaperSchemes; ++i) {
        EXPECT_EQ(kPaperSchemes[i], kAllSchemes[i]);
    }
}

TEST(SchemeTest, AllSchemesListsEveryEnumeratorOnce)
{
    std::set<Scheme> seen(kAllSchemes.begin(), kAllSchemes.end());
    EXPECT_EQ(seen.size(), kNumSchemes);
}

} // namespace
} // namespace swcc
