#include "common/config.hh"

namespace c3d
{

const std::vector<EnumName<Design>> &
enumNames(Design)
{
    static const std::vector<EnumName<Design>> names = {
        {Design::Baseline, "baseline"},
        {Design::Snoopy, "snoopy"},
        {Design::FullDir, "full-dir"},
        {Design::C3D, "c3d"},
        {Design::C3DFullDir, "c3d-full-dir"},
    };
    return names;
}

const std::vector<EnumName<MappingPolicy>> &
enumNames(MappingPolicy)
{
    static const std::vector<EnumName<MappingPolicy>> names = {
        {MappingPolicy::Interleave, "INT"},
        {MappingPolicy::FirstTouch1, "FT1"},
        {MappingPolicy::FirstTouch2, "FT2"},
    };
    return names;
}

const std::vector<EnumName<Protocol>> &
enumNames(Protocol)
{
    static const std::vector<EnumName<Protocol>> names = {
        {Protocol::Mesi, "mesi"},
        {Protocol::Mesif, "mesif"},
        {Protocol::Moesi, "moesi"},
        {Protocol::Dragon, "dragon"},
    };
    return names;
}

const std::vector<EnumName<PredictorKind>> &
enumNames(PredictorKind)
{
    static const std::vector<EnumName<PredictorKind>> names = {
        {PredictorKind::Region, "region"},
        {PredictorKind::Perceptron, "perceptron"},
    };
    return names;
}

} // namespace c3d
