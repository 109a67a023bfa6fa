// Runs the entire verification-condition universe under gtest, one test per
// VC (dynamic registration), so `ctest` failures name the exact obligation
// that broke. This is the same universe bench/fig1a_vc_cdf times.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/base/contracts.h"
#include "src/spec/vc.h"

namespace vnros {
namespace {

class VcTest : public ::testing::Test {
 public:
  explicit VcTest(const Vc* vc) : vc_(vc) {}

  void TestBody() override {
    ScopedContracts contracts_on;
    VcOutcome outcome = vc_->check();
    EXPECT_TRUE(outcome.passed) << vc_->name << ": " << outcome.message;
  }

 private:
  const Vc* vc_;
};

// The registry must outlive the registered tests.
VcRegistry& registry() {
  static VcRegistry* reg = [] {
    auto* r = new VcRegistry();
    register_all_vcs(*r);
    return r;
  }();
  return *reg;
}

bool register_all = [] {
  for (const Vc& vc : registry().vcs()) {
    // gtest splits suite/name on the first '/' we give it; VC names are
    // "module/check", which maps nicely onto "Vc_module.check".
    auto slash = vc.name.find('/');
    std::string suite = "Vc_" + vc.name.substr(0, slash);
    std::string name = vc.name.substr(slash + 1);
    ::testing::RegisterTest(suite.c_str(), name.c_str(), nullptr, nullptr, __FILE__, __LINE__,
                            [vc_ptr = &vc]() -> ::testing::Test* { return new VcTest(vc_ptr); });
  }
  return true;
}();

// Also assert the aggregate properties the paper reports on: the VC count is
// in the vicinity of the paper's 220, and every Table-2 category has live
// coverage. Coverage is read from the registry's metadata: every VC already
// runs, and must pass, as its own Vc_* test above, so each VC runs once.
TEST(VcUniverse, CountAndCoverage) {
  EXPECT_GE(registry().size(), 150u);
  std::set<VcCategory> covered;
  for (const Vc& vc : registry().vcs()) {
    covered.insert(vc.category);
  }
  for (VcCategory c : {VcCategory::kMemorySafety, VcCategory::kRefinement,
                       VcCategory::kConcurrency, VcCategory::kScheduler,
                       VcCategory::kMemoryManagement, VcCategory::kFilesystem,
                       VcCategory::kDrivers, VcCategory::kProcessManagement,
                       VcCategory::kThreadsSync, VcCategory::kNetworkStack,
                       VcCategory::kSystemLibraries, VcCategory::kApplication}) {
    EXPECT_EQ(covered.count(c), 1u) << vc_category_name(c);
  }
}

}  // namespace
}  // namespace vnros
