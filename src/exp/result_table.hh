/**
 * @file
 * Structured sweep results: one ResultRow per grid point, collected
 * into a ResultTable with deterministic JSON and CSV emitters and a
 * matching JSON parser (round-trip safe).
 *
 * The serialized schema is documented in docs/sweeps.md. Emission is
 * fully deterministic -- fixed key order, fixed number formatting --
 * so two sweeps over the same grid compare byte-for-byte regardless
 * of how many worker threads produced them.
 */

#ifndef C3DSIM_EXP_RESULT_TABLE_HH
#define C3DSIM_EXP_RESULT_TABLE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep_grid.hh"
#include "sim/runner.hh"

namespace c3d::exp
{

class JsonValue;

/** Identity + metrics of one completed run. */
struct ResultRow : AxisIndices
{
    // ---- identity (the grid point) ------------------------------------
    std::string workload;
    std::string variant; //!< empty when the grid had no variants
    std::string design;
    std::string protocol;  //!< snoopy-family protocol variant
    std::string predictor; //!< DRAM-cache predictor kind
    std::string mapping;
    std::uint32_t sockets = 0;
    std::uint32_t coresPerSocket = 0;
    std::uint32_t scale = 1;
    std::uint64_t dramCacheMb = 0; //!< 0 = machine default
    std::uint64_t warmupOps = 0;
    std::uint64_t measureOps = 0;
    std::uint64_t seed = 0;

    // The axis indices (AxisIndices) are in-memory only.

    // ---- measured metrics ---------------------------------------------
    RunResult metrics;

    /** Equality on every serialized field (indices excluded). */
    bool sameAs(const ResultRow &o) const;

    /**
     * Canonical identity of the grid point this row measures: the
     * identity columns joined with '|', matching specIdentityKey()
     * of the RunSpec that produced the row. Two rows with equal
     * keys are the same grid point and must carry equal metrics.
     */
    std::string identityKey() const;
};

/**
 * One serialized column of a result row. rowColumns() lists them in
 * schema order (docs/sweeps.md "Output schema"); the JSON and CSV
 * emitters, the JSON parser, sameAs() and identityKey() all walk it. A
 * column is a string or an unsigned integer; the ResultRow fields
 * are the identity columns, the RunResult fields the metrics.
 */
struct RowColumn
{
    RowColumn(const char *n, std::string ResultRow::*f)
        : name(n), identity(true), str(f) {}
    RowColumn(const char *n, std::uint32_t ResultRow::*f)
        : name(n), identity(true), u32(f) {}
    RowColumn(const char *n, std::uint64_t ResultRow::*f)
        : name(n), identity(true), u64(f) {}
    RowColumn(const char *n, std::uint64_t RunResult::*f)
        : name(n), metric(f) {}

    const char *name;
    bool identity = false; //!< part of the grid point's identity key

    // Exactly one accessor is set.
    std::string ResultRow::*str = nullptr;
    std::uint32_t ResultRow::*u32 = nullptr;
    std::uint64_t ResultRow::*u64 = nullptr;
    std::uint64_t RunResult::*metric = nullptr;

    std::uint64_t number(const ResultRow &row) const;
    void setNumber(ResultRow &row, std::uint64_t v) const;
    /** The value as text: a string column raw, a number in decimal. */
    std::string text(const ResultRow &row) const;
};

/** Every serialized column except the derived `ipc` and the
 * optional `tenants`, in schema order. */
const std::vector<RowColumn> &rowColumns();

/** The column called @p name; panics when there is none. */
const RowColumn &rowColumn(const std::string &name);

/**
 * A value-keyed ResultTable::at pattern: each term pins one identity
 * column to its text (RowColumn::text), e.g.
 * `RowPattern().workload("facesim").design(Design::C3D).sockets(4)`;
 * unpinned columns match any row. Unlike axis ordinals
 * (AxisIndices), which mean something only inside one grid, values
 * mean the same in every grid, so a pattern finds rows in a table
 * appended from several grids.
 */
class RowPattern
{
  public:
    /** Pin identity column @p column to @p value, replacing an
     * earlier pin of it; panics on a non-identity column. */
    RowPattern &where(const std::string &column, std::string value);

    RowPattern &workload(std::string name)
    {
        return where("workload", std::move(name));
    }
    RowPattern &variant(std::string name)
    {
        return where("variant", std::move(name));
    }
    RowPattern &design(Design d) { return where("design", designName(d)); }
    RowPattern &sockets(std::uint32_t n)
    {
        return where("sockets", std::to_string(n));
    }
    RowPattern &mapping(MappingPolicy m)
    {
        return where("mapping", mappingPolicyName(m));
    }

    bool matches(const ResultRow &row) const;

    /** The pinned terms as `column=value ...`, for diagnostics. */
    std::string text() const;

  private:
    std::vector<std::pair<const RowColumn *, std::string>> terms;
};

/** An ordered collection of result rows. */
class ResultTable
{
  public:
    void appendRow(ResultRow row)
    {
        tableRows.push_back(std::move(row));
    }

    /** Append all of @p other's rows (multi-grid studies). */
    void append(const ResultTable &other);

    const std::vector<ResultRow> &rows() const { return tableRows; }
    std::size_t size() const { return tableRows.size(); }
    bool empty() const { return tableRows.empty(); }

    /**
     * The one row @p pattern matches. Throws SimError when no row
     * or more than one row matches: a lookup never guesses.
     */
    const ResultRow &at(const RowPattern &pattern) const;

    /** Row-by-row sameAs comparison. */
    bool sameRows(const ResultTable &other) const;

    // ---- serialization ------------------------------------------------
    std::string toJson() const;
    std::string toCsv() const;

    /** Parse; false + @p error on malformed input. */
    static bool fromJson(const std::string &text, ResultTable &out,
                         std::string &error);

    /** Serialized schema identifier. */
    static const char *schemaName();

    // ---- per-row serialization (shared with the sweep journal) ---------

    /**
     * One row as a single-line JSON object, identical member order
     * and formatting to the objects inside toJson().
     */
    static std::string rowToJson(const ResultRow &row);

    /**
     * Parse one row object (as emitted by rowToJson / toJson).
     * Unknown members are ignored; every schema column plus a
     * numeric "ipc" must be present. False + @p error on mismatch.
     */
    static bool rowFromJson(const JsonValue &obj, ResultRow &out,
                            std::string &error);

  private:
    std::vector<ResultRow> tableRows;
};

} // namespace c3d::exp

#endif // C3DSIM_EXP_RESULT_TABLE_HH
