/**
 * @file
 * Unit tests for the command-line configuration parser.
 */

#include <gtest/gtest.h>

#include "common/cli.hh"
#include "exp/sweep_grid.hh"
#include "trace/workload.hh"

namespace c3d
{
namespace
{

TEST(Cli, DefaultsAreSane)
{
    const CliOptions opt = parseCli(std::vector<std::string>{});
    EXPECT_TRUE(opt.ok());
    EXPECT_EQ(opt.config.design, Design::C3D);
    EXPECT_EQ(opt.config.numSockets, 4u);
    EXPECT_EQ(opt.config.coresPerSocket, 8u);
    EXPECT_EQ(opt.config.mapping, MappingPolicy::FirstTouch2);
    EXPECT_EQ(opt.config.protocol, Protocol::Mesi);
    EXPECT_EQ(opt.config.predictorKind, PredictorKind::Region);
    EXPECT_EQ(opt.scale, 32u);
    EXPECT_EQ(opt.workload, "facesim");
}

TEST(Cli, ParsesDesigns)
{
    for (Design d : {Design::Baseline, Design::Snoopy, Design::FullDir,
                     Design::C3D, Design::C3DFullDir}) {
        const CliOptions opt = parseCli(
            {std::string("--design=") + designName(d)});
        EXPECT_TRUE(opt.ok()) << designName(d);
        EXPECT_EQ(opt.config.design, d);
    }
}

TEST(Cli, RejectsUnknownDesign)
{
    const CliOptions opt = parseCli({"--design=magic"});
    EXPECT_FALSE(opt.ok());
    EXPECT_NE(opt.error.find("magic"), std::string::npos);
}

TEST(Cli, ParsesMachineShape)
{
    const CliOptions opt = parseCli(
        {"--sockets=2", "--cores-per-socket=16", "--scale=64"});
    ASSERT_TRUE(opt.ok());
    EXPECT_EQ(opt.config.numSockets, 2u);
    EXPECT_EQ(opt.config.coresPerSocket, 16u);
    EXPECT_EQ(opt.config.totalCores(), 32u);
    // Scaling applied: LLC = 16 MB / 64.
    EXPECT_EQ(opt.config.llcBytes, (16ull << 20) / 64);
}

TEST(Cli, LatencyOverridesConvertNsToTicks)
{
    const CliOptions opt = parseCli(
        {"--dram-cache-ns=50", "--hop-ns=5", "--mem-ns=100"});
    ASSERT_TRUE(opt.ok());
    EXPECT_EQ(opt.config.dramCacheLatency, nsToTicks(50));
    EXPECT_EQ(opt.config.hopLatency, nsToTicks(5));
    EXPECT_EQ(opt.config.memLatency, nsToTicks(100));
}

TEST(Cli, MappingAndFlags)
{
    const CliOptions opt = parseCli(
        {"--mapping=INT", "--tlb-classification", "--no-dram-cache"});
    ASSERT_TRUE(opt.ok());
    EXPECT_EQ(opt.config.mapping, MappingPolicy::Interleave);
    EXPECT_TRUE(opt.config.tlbPageClassification);
    EXPECT_FALSE(opt.config.hasDramCache);
}

TEST(Cli, WorkloadAndQuotas)
{
    const CliOptions opt = parseCli(
        {"--workload=canneal", "--warmup=123", "--measure=456",
         "--seed=0x42"});
    ASSERT_TRUE(opt.ok());
    EXPECT_EQ(opt.workload, "canneal");
    EXPECT_EQ(opt.warmupOps, 123u);
    EXPECT_EQ(opt.measureOps, 456u);
    EXPECT_EQ(opt.seed, 0x42u);
}

TEST(Cli, HelpFlag)
{
    const CliOptions opt = parseCli({"--help"});
    EXPECT_TRUE(opt.showHelp);
    EXPECT_FALSE(opt.ok());
    EXPECT_FALSE(cliUsage().empty());
}

TEST(Cli, RejectsBareArguments)
{
    const CliOptions opt = parseCli({"canneal"});
    EXPECT_FALSE(opt.ok());
}

TEST(Cli, RejectsUnknownFlag)
{
    const CliOptions opt = parseCli({"--frobnicate=7"});
    EXPECT_FALSE(opt.ok());
    EXPECT_NE(opt.error.find("frobnicate"), std::string::npos);
}

TEST(Cli, RejectsMalformedNumbers)
{
    EXPECT_FALSE(parseCli({"--warmup=abc"}).ok());
    EXPECT_FALSE(parseCli({"--sockets=0"}).ok());
    EXPECT_FALSE(parseCli({"--sockets=9"}).ok());
    EXPECT_FALSE(parseCli({"--sockets=2,4"}).ok());
    EXPECT_FALSE(parseCli({"--scale=0"}).ok());
}

// The common CLI's axis flags go through the sweep axes' parsers, but
// --sockets keeps the given (or default) cores per socket instead of
// the sweep's paper rule, whatever the flag order.
TEST(Cli, SocketsFlagKeepsCoresPerSocket)
{
    EXPECT_EQ(parseCli({"--sockets=2"}).config.coresPerSocket, 8u);
    const CliOptions opt =
        parseCli({"--cores-per-socket=4", "--sockets=2"});
    ASSERT_TRUE(opt.ok()) << opt.error;
    EXPECT_EQ(opt.config.numSockets, 2u);
    EXPECT_EQ(opt.config.coresPerSocket, 4u);
}

TEST(Cli, HelpNamesEverySingleValueAxisFlag)
{
    for (const char *flag : {"--design=", "--protocol=", "--predictor=",
                             "--sockets=", "--mapping="})
        EXPECT_NE(cliUsage().find(flag), std::string::npos) << flag;
    EXPECT_NE(cliUsage().find("1..8"), std::string::npos);
}

// c3d-sweep's --dram-cache-mb: a capacity whose byte count overflows
// 64 bits is refused, naming the flag. 2^44 MB used to wrap to 0
// bytes, so the row said 17592186044416 MB while the machine got the
// 1 MB floor.
TEST(Cli, SweepDramCacheMbRejectsOverflow)
{
    exp::SweepGrid grid;
    for (const char *value : {"17592186044416", "17592186044417",
                              "256,17592186044416", ""}) {
        std::string error;
        EXPECT_TRUE(
            exp::parseAxisFlag("dram-cache-mb", true, value, grid, error));
        EXPECT_NE(error.find("--dram-cache-mb"), std::string::npos)
            << value << ": " << error;
    }
    EXPECT_EQ(grid.dramCacheMb, std::vector<std::uint64_t>{0});

    // The largest accepted capacity reaches the machine unwrapped.
    std::string error;
    ASSERT_TRUE(exp::parseAxisFlag("dram-cache-mb", true,
                                   "0,17592186044415", grid, error));
    ASSERT_EQ(error, "");
    grid.workloads = {profileByName("facesim")};
    grid.scale = 1;
    const std::vector<exp::RunSpec> specs = grid.expand();
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[1].dramCacheMb, 17592186044415ull);
    EXPECT_EQ(specs[1].cfg.dramCacheBytes, 17592186044415ull << 20);
}

} // namespace
} // namespace c3d
