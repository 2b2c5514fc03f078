// Model construction from Psi_S solutions (Section 3.3, Figure 6),
// through the witness pipeline's two entry points:
// `WitnessSynthesizer::Synthesize` (from a checker's maximal support) and
// `WitnessSynthesizer::SynthesizeFromSolution` (from a caller's integer
// solution).

#include <gtest/gtest.h>

#include "src/cr/model_checker.h"
#include "src/witness/witness.h"
#include "tests/test_schemas.h"

namespace crsat {
namespace {

using crsat::testing::EmploymentSchema;
using crsat::testing::Figure1Schema;
using crsat::testing::MeetingSchema;

// The certified witness over the checker's maximal support: one model
// populating every satisfiable class at once.
Result<Interpretation> SynthesizeModel(const SatisfiabilityChecker& checker) {
  WitnessSynthesizer synthesizer(checker);
  CRSAT_ASSIGN_OR_RETURN(CertifiedWitness witness, synthesizer.Synthesize());
  return std::move(witness).TakeInterpretation();
}

Result<Interpretation> ModelFromSolution(const Expansion& expansion,
                                         const IntegerSolution& solution,
                                         const WitnessOptions& options = {}) {
  CRSAT_ASSIGN_OR_RETURN(CertifiedWitness witness,
                         WitnessSynthesizer::SynthesizeFromSolution(
                             expansion, solution, options));
  return std::move(witness).TakeInterpretation();
}

TEST(WitnessModelTest, MeetingModelRealizesFigure6Shape) {
  // The paper's Figure 6 derives a model with 2 speaker-discussants and 2
  // talks from the solution of the disequation system. Our witness may
  // scale differently but must be a verified model populating Speaker.
  Schema schema = MeetingSchema();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  Interpretation model = SynthesizeModel(checker).value();
  EXPECT_TRUE(ModelChecker::IsModel(schema, model));
  ClassId speaker = schema.FindClass("Speaker").value();
  ClassId discussant = schema.FindClass("Discussant").value();
  ClassId talk = schema.FindClass("Talk").value();
  EXPECT_FALSE(model.ClassExtension(speaker).empty());
  EXPECT_FALSE(model.ClassExtension(talk).empty());
  // The schema forces speakers == discussants (Figure 7).
  EXPECT_EQ(model.ClassExtension(speaker), model.ClassExtension(discussant));
}

TEST(WitnessModelTest, BuildModelForUnsatisfiableClassFails) {
  Schema schema = Figure1Schema();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  EXPECT_FALSE(checker.IsClassSatisfiable(schema.FindClass("C").value())
                   .value());
  // Every Figure 1 class is unsatisfiable, so there is nothing to witness.
  Result<Interpretation> result = SynthesizeModel(checker);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(WitnessModelTest, EmploymentModelBalancesDegrees) {
  // Every employee in exactly one department; departments need >= 3
  // employees: the witness must respect both.
  Schema schema = EmploymentSchema();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  Interpretation model = SynthesizeModel(checker).value();
  EXPECT_TRUE(ModelChecker::IsModel(schema, model));
  ClassId department = schema.FindClass("Department").value();
  ClassId employee = schema.FindClass("Employee").value();
  EXPECT_FALSE(model.ClassExtension(department).empty());
  EXPECT_GE(model.ClassExtension(employee).size(),
            3 * model.ClassExtension(department).size());
}

TEST(WitnessModelTest, ZeroSolutionYieldsEmptyModel) {
  Schema schema = MeetingSchema();
  Expansion expansion = Expansion::Build(schema).value();
  IntegerSolution zeros;
  zeros.class_counts.assign(expansion.classes().size(), BigInt(0));
  zeros.rel_counts.assign(expansion.relationships().size(), BigInt(0));
  Interpretation model = ModelFromSolution(expansion, zeros).value();
  EXPECT_EQ(model.domain_size(), 0);
  EXPECT_TRUE(ModelChecker::IsModel(schema, model));
}

TEST(WitnessModelTest, MismatchedSolutionSizeRejected) {
  Schema schema = MeetingSchema();
  Expansion expansion = Expansion::Build(schema).value();
  IntegerSolution bad;
  bad.class_counts.assign(1, BigInt(0));
  bad.rel_counts.assign(expansion.relationships().size(), BigInt(0));
  EXPECT_FALSE(ModelFromSolution(expansion, bad).ok());
}

TEST(WitnessModelTest, UnacceptableSolutionRejected) {
  // Tuples in a compound relationship whose component class is empty.
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "B"}});
  Schema schema = builder.Build().value();
  Expansion expansion = Expansion::Build(schema).value();
  IntegerSolution solution;
  solution.class_counts.assign(expansion.classes().size(), BigInt(0));
  solution.rel_counts.assign(expansion.relationships().size(), BigInt(0));
  solution.rel_counts[0] = BigInt(1);
  Result<Interpretation> result = ModelFromSolution(expansion, solution);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(WitnessModelTest, DuplicateCollisionsResolvedByFlowOrScaling) {
  // One A, one B, and R pairing them with multiplicity exactly 2 on both
  // sides: at scale 1 the only candidate extension would need the tuple
  // (a, b) twice — impossible for a set. The builder must scale the
  // solution and realize 2 A's, 2 B's, 4 tuples (or similar).
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddRelationship("R", {{"U", "A"}, {"V", "B"}});
  builder.SetCardinality("A", "R", "U", {2, 2});
  builder.SetCardinality("B", "R", "V", {2, 2});
  Schema schema = builder.Build().value();
  Expansion expansion = Expansion::Build(schema).value();

  IntegerSolution cramped;
  cramped.class_counts.assign(expansion.classes().size(), BigInt(0));
  cramped.rel_counts.assign(expansion.relationships().size(), BigInt(0));
  int a_index = expansion.ClassIndexOf(CompoundClass(0b01));
  int b_index = expansion.ClassIndexOf(CompoundClass(0b10));
  ASSERT_GE(a_index, 0);
  ASSERT_GE(b_index, 0);
  cramped.class_counts[a_index] = BigInt(1);
  cramped.class_counts[b_index] = BigInt(1);
  // Find the compound relationship <{A},{B}>.
  int rel_index = -1;
  for (size_t i = 0; i < expansion.relationships().size(); ++i) {
    if (expansion.relationships()[i].components[0] == CompoundClass(0b01) &&
        expansion.relationships()[i].components[1] == CompoundClass(0b10)) {
      rel_index = static_cast<int>(i);
    }
  }
  ASSERT_GE(rel_index, 0);
  cramped.rel_counts[rel_index] = BigInt(2);

  Interpretation model = ModelFromSolution(expansion, cramped).value();
  EXPECT_TRUE(ModelChecker::IsModel(schema, model));
  ClassId a = schema.FindClass("A").value();
  RelationshipId r = schema.FindRelationship("R").value();
  EXPECT_GE(model.ClassExtension(a).size(), 2u);
  EXPECT_GE(model.RelationshipExtension(r).size(), 4u);
}

TEST(WitnessModelTest, TernaryRelationshipRealized) {
  SchemaBuilder builder;
  builder.AddClass("A");
  builder.AddClass("B");
  builder.AddClass("C");
  builder.AddRelationship("T", {{"U", "A"}, {"V", "B"}, {"W", "C"}});
  builder.SetCardinality("A", "T", "U", {1, 2});
  builder.SetCardinality("B", "T", "V", {1, 1});
  builder.SetCardinality("C", "T", "W", {1, 3});
  Schema schema = builder.Build().value();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  ASSERT_TRUE(checker.IsClassSatisfiable(schema.FindClass("A").value())
                  .value());
  Interpretation model = SynthesizeModel(checker).value();
  EXPECT_TRUE(ModelChecker::IsModel(schema, model));
  EXPECT_FALSE(
      model.RelationshipExtension(schema.FindRelationship("T").value())
          .empty());
}

TEST(WitnessModelTest, SizeCapEnforced) {
  Schema schema = EmploymentSchema();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  IntegerSolution solution = checker.AcceptableIntegerSolution().value();
  WitnessOptions options;
  options.max_model_size = 1;  // Far below any witness for this schema.
  Result<Interpretation> result =
      ModelFromSolution(expansion, solution, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(WitnessModelTest, ModelsForEveryMeetingClassVerify) {
  Schema schema = MeetingSchema();
  Expansion expansion = Expansion::Build(schema).value();
  SatisfiabilityChecker checker(expansion);
  for (ClassId cls : schema.AllClasses()) {
    ASSERT_TRUE(checker.IsClassSatisfiable(cls).value())
        << schema.ClassName(cls);
    Interpretation model = SynthesizeModel(checker).value();
    EXPECT_TRUE(ModelChecker::IsModel(schema, model))
        << schema.ClassName(cls);
    EXPECT_FALSE(model.ClassExtension(cls).empty()) << schema.ClassName(cls);
  }
}

}  // namespace
}  // namespace crsat
