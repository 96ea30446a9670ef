#include "noc/params.hh"

#include "sim/config.hh"
#include "sim/logging.hh"

namespace rasim
{
namespace noc
{

NocParams
NocParams::fromConfig(const Config &cfg)
{
    NocParams p;
    p.columns = static_cast<int>(cfg.getUInt("noc.columns", 8));
    p.rows = static_cast<int>(cfg.getUInt("noc.rows", 8));
    p.topology = cfg.getString("noc.topology", "mesh");
    p.routing = cfg.getString("noc.routing", "xy");
    p.vcs_per_vnet = static_cast<int>(cfg.getUInt("noc.vcs_per_vnet", 2));
    p.vc_classes = static_cast<int>(
        cfg.getUInt("noc.vc_classes", p.topology == "torus" ? 2 : 1));
    p.buffer_depth = static_cast<int>(cfg.getUInt("noc.buffer_depth", 4));
    p.link_latency = static_cast<int>(cfg.getUInt("noc.link_latency", 1));
    p.pipeline_stages =
        static_cast<int>(cfg.getUInt("noc.pipeline_stages", 2));
    p.flit_bytes =
        static_cast<std::uint32_t>(cfg.getUInt("noc.flit_bytes", 16));
    p.validate();
    return p;
}

void
NocParams::validate() const
{
    if (columns < 1 || rows < 1)
        fatal("noc: dimensions must be positive (", columns, "x", rows,
              ")");
    if (vcs_per_vnet < 1)
        fatal("noc: vcs_per_vnet must be >= 1");
    if (vc_classes < 1 || vc_classes > 2)
        fatal("noc: vc_classes must be 1 or 2");
    if (topology == "torus" && vc_classes != 2)
        fatal("noc: torus topologies need vc_classes=2 (datelines)");
    if (buffer_depth < 1)
        fatal("noc: buffer_depth must be >= 1");
    if (link_latency < 1)
        fatal("noc: link_latency must be >= 1");
    if (pipeline_stages < 1)
        fatal("noc: pipeline_stages must be >= 1");
    if (flit_bytes == 0)
        fatal("noc: flit_bytes must be > 0");
    if (topology != "mesh" && topology != "torus")
        fatal("noc: unknown topology '", topology, "'");
    if (totalVcs() > max_vcs_per_port)
        fatal("noc: at most ", max_vcs_per_port, " VCs per port (got ",
              totalVcs(), " = ", num_vnets, " vnets x vc_classes x "
              "vcs_per_vnet)");
    if (buffer_depth > max_buffer_depth)
        fatal("noc: buffer_depth must be <= ", max_buffer_depth, " (got ",
              buffer_depth, ")");
}

} // namespace noc
} // namespace rasim
