#include "exp/result_table.hh"

#include <cstdio>
#include <cstdlib>

#include "common/log.hh"
#include "exp/json.hh"

namespace c3d::exp
{

namespace
{

/** Deterministic formatting for the derived IPC column. */
std::string
formatIpc(double ipc)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", ipc);
    return buf;
}

/**
 * Validate a serialized ipc token. The value itself is recomputed
 * from the integer columns on emit, but a malformed token means the
 * input is not our schema: reject loudly instead of ignoring it.
 */
bool
validIpcToken(const std::string &s)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    std::strtod(s.c_str(), &end);
    return end && *end == '\0';
}

/** A tenant's numeric QoS columns, in serialized order. */
const struct
{
    const char *key;
    std::uint64_t TenantMetrics::*field;
} TenantCols[] = {
    {"instructions", &TenantMetrics::instructions},
    {"loads", &TenantMetrics::loads},
    {"stores", &TenantMetrics::stores},
    {"dram_cache_hits", &TenantMetrics::dramCacheHits},
    {"dram_cache_misses", &TenantMetrics::dramCacheMisses},
    {"dram_cache_occupancy", &TenantMetrics::dramCacheOccupancy},
    {"lat_p50", &TenantMetrics::latP50},
    {"lat_p95", &TenantMetrics::latP95},
    {"lat_p99", &TenantMetrics::latP99},
};

/**
 * One tenant's QoS metrics as a JSON object. Tenant ipc is derived
 * (like the row's) from the tenant's instructions and the row's
 * measured ticks, with the same deterministic formatting.
 */
std::string
tenantToJson(const TenantMetrics &tm, Tick measured_ticks)
{
    std::string out = "{\"name\": \"" + jsonEscape(tm.name) + "\"";
    for (const auto &c : TenantCols)
        out += ", \"" + std::string(c.key) + "\": " +
            std::to_string(tm.*c.field);
    out += ", \"ipc\": " + formatIpc(tm.ipc(measured_ticks));
    out += "}";
    return out;
}

/** The row's tenants as a JSON array (empty rows never call this). */
std::string
tenantsToJson(const ResultRow &r)
{
    std::string out = "[";
    for (std::size_t i = 0; i < r.metrics.tenants.size(); ++i) {
        if (i)
            out += ", ";
        out += tenantToJson(r.metrics.tenants[i],
                            r.metrics.measuredTicks);
    }
    out += "]";
    return out;
}

bool
tenantFromJson(const JsonValue &tv, TenantMetrics &out,
               std::string &error)
{
    if (!tv.isObject()) {
        error = "tenant entry is not an object";
        return false;
    }
    TenantMetrics tm;
    const JsonValue *name = tv.member("name");
    if (!name || !name->isString()) {
        error = "tenant missing string field 'name'";
        return false;
    }
    tm.name = name->string();
    for (const auto &c : TenantCols) {
        const JsonValue *v = tv.member(c.key);
        if (!v || !v->isNumber()) {
            error = std::string("tenant missing numeric field '") +
                c.key + "'";
            return false;
        }
        tm.*c.field = v->u64();
    }
    // Tenant ipc is recomputed on emit, as the row's is.
    const JsonValue *ipc = tv.member("ipc");
    if (!ipc || !ipc->isNumber()) {
        error = "tenant missing numeric field 'ipc'";
        return false;
    }
    out = std::move(tm);
    return true;
}

bool
tenantsFromJson(const JsonValue &arr, std::vector<TenantMetrics> &out,
                std::string &error)
{
    if (!arr.isArray()) {
        error = "'tenants' is not an array";
        return false;
    }
    std::vector<TenantMetrics> tenants;
    for (const JsonValue &tv : arr.array()) {
        TenantMetrics tm;
        if (!tenantFromJson(tv, tm, error))
            return false;
        tenants.push_back(std::move(tm));
    }
    out = std::move(tenants);
    return true;
}

bool
sameTenants(const std::vector<TenantMetrics> &a,
            const std::vector<TenantMetrics> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name)
            return false;
        for (const auto &c : TenantCols) {
            if (a[i].*c.field != b[i].*c.field)
                return false;
        }
    }
    return true;
}

/** CSV-quote a field only when it needs it. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

/** CSV header: every column, then the derived ipc and tenants. */
std::vector<std::string>
csvHeader()
{
    std::vector<std::string> names;
    for (const RowColumn &c : rowColumns())
        names.push_back(c.name);
    names.push_back("ipc");
    names.push_back("tenants");
    return names;
}

/**
 * Split CSV text into records, honoring quoted fields: a '\n'
 * inside a quoted field belongs to the field, not the record
 * separator (toCsv emits such records for names containing
 * newlines, so the parser must accept them back).
 */
std::vector<std::string>
splitCsvRecords(const std::string &text)
{
    std::vector<std::string> records;
    std::string cur;
    // Flipping on every '"' tracks quoting exactly for emitter
    // output: an escaped "" flips twice and stays inside the field.
    bool quoted = false;
    for (const char c : text) {
        if (c == '\n' && !quoted) {
            records.push_back(cur);
            cur.clear();
            continue;
        }
        if (c == '"')
            quoted = !quoted;
        cur += c;
    }
    if (!cur.empty())
        records.push_back(cur);
    return records;
}

/** Split one CSV record honoring quoted fields. */
bool
splitCsvLine(const std::string &line, std::vector<std::string> &out)
{
    out.clear();
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    field += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                field += c;
            }
        } else if (c == '"' && field.empty()) {
            quoted = true;
        } else if (c == ',') {
            out.push_back(field);
            field.clear();
        } else {
            field += c;
        }
    }
    if (quoted)
        return false;
    out.push_back(field);
    return true;
}

} // namespace

const std::vector<RowColumn> &
rowColumns()
{
    static const std::vector<RowColumn> columns = {
        {"workload", &ResultRow::workload},
        {"variant", &ResultRow::variant},
        {"design", &ResultRow::design},
        {"protocol", &ResultRow::protocol},
        {"predictor", &ResultRow::predictor},
        {"mapping", &ResultRow::mapping},
        {"sockets", &ResultRow::sockets},
        {"cores_per_socket", &ResultRow::coresPerSocket},
        {"scale", &ResultRow::scale},
        {"dram_cache_mb", &ResultRow::dramCacheMb},
        {"warmup_ops", &ResultRow::warmupOps},
        {"measure_ops", &ResultRow::measureOps},
        {"seed", &ResultRow::seed},
        {"measured_ticks", &RunResult::measuredTicks},
        {"instructions", &RunResult::instructions},
        {"mem_reads", &RunResult::memReads},
        {"mem_writes", &RunResult::memWrites},
        {"remote_mem_reads", &RunResult::remoteMemReads},
        {"remote_mem_writes", &RunResult::remoteMemWrites},
        {"dram_cache_hits", &RunResult::dramCacheHits},
        {"dram_cache_misses", &RunResult::dramCacheMisses},
        {"llc_misses", &RunResult::llcMisses},
        {"inter_socket_bytes", &RunResult::interSocketBytes},
        {"broadcasts", &RunResult::broadcasts},
        {"broadcasts_elided", &RunResult::broadcastsElided},
        {"predictor_trains", &RunResult::predictorTrains},
        {"predictor_bypasses", &RunResult::predictorBypasses},
        {"predictor_ghost_hits", &RunResult::predictorGhostHits},
        {"predictor_false_present", &RunResult::predictorFalsePresent},
    };
    return columns;
}

const RowColumn &
rowColumn(const std::string &name)
{
    for (const RowColumn &c : rowColumns()) {
        if (name == c.name)
            return c;
    }
    c3d_panic("no result column '%s'", name.c_str());
}

std::uint64_t
RowColumn::number(const ResultRow &row) const
{
    return u32 ? row.*u32 : u64 ? row.*u64 : row.metrics.*metric;
}

void
RowColumn::setNumber(ResultRow &row, std::uint64_t v) const
{
    if (u32)
        row.*u32 = static_cast<std::uint32_t>(v);
    else if (u64)
        row.*u64 = v;
    else
        row.metrics.*metric = v;
}

std::string
RowColumn::text(const ResultRow &row) const
{
    return str ? row.*str : std::to_string(number(row));
}

bool
ResultRow::sameAs(const ResultRow &o) const
{
    for (const RowColumn &c : rowColumns()) {
        if (c.str ? this->*c.str != o.*c.str
                  : c.number(*this) != c.number(o))
            return false;
    }
    return sameTenants(metrics.tenants, o.metrics.tenants);
}

std::string
ResultRow::identityKey() const
{
    std::string key;
    for (const RowColumn &c : rowColumns()) {
        if (!c.identity)
            continue;
        if (&c != &rowColumns().front())
            key += '|';
        key += c.text(*this);
    }
    return key;
}

void
ResultTable::append(const ResultTable &other)
{
    for (const ResultRow &r : other.tableRows)
        tableRows.push_back(r);
}

const ResultRow *
ResultTable::find(const AxisIndices &at) const
{
    for (const ResultRow &r : tableRows) {
        bool match = true;
        for (const GridAxis &axis : gridAxes()) {
            const std::size_t want = at.*axis.index;
            match = match && (want == SIZE_MAX || r.*axis.index == want);
        }
        if (match)
            return &r;
    }
    return nullptr;
}

bool
ResultTable::sameRows(const ResultTable &other) const
{
    if (tableRows.size() != other.tableRows.size())
        return false;
    for (std::size_t i = 0; i < tableRows.size(); ++i) {
        if (!tableRows[i].sameAs(other.tableRows[i]))
            return false;
    }
    return true;
}

const char *
ResultTable::schemaName()
{
    return "c3d-sweep/v3";
}

std::string
ResultTable::rowToJson(const ResultRow &r)
{
    std::string out = "{";
    for (const RowColumn &c : rowColumns()) {
        out += out.size() > 1 ? ", \"" : "\"";
        out += c.name;
        out += c.str ? "\": \"" + jsonEscape(r.*c.str) + "\""
                     : "\": " + c.text(r);
    }
    out += ", \"ipc\": " + formatIpc(r.metrics.ipc());
    // Composed rows carry a per-tenant QoS breakdown; plain rows
    // omit the member entirely, keeping their serialization
    // byte-identical to pre-composition output.
    if (!r.metrics.tenants.empty())
        out += ", \"tenants\": " + tenantsToJson(r);
    out += "}";
    return out;
}

bool
ResultTable::rowFromJson(const JsonValue &rv, ResultRow &out,
                         std::string &error)
{
    if (!rv.isObject()) {
        error = "row is not an object";
        return false;
    }
    ResultRow row;
    for (const RowColumn &c : rowColumns()) {
        const JsonValue *v = rv.member(c.name);
        if (!v || !(c.str ? v->isString() : v->isNumber())) {
            error = std::string("row missing ") +
                (c.str ? "string" : "numeric") + " field '" + c.name +
                "'";
            return false;
        }
        if (c.str)
            row.*c.str = v->string();
        else
            c.setNumber(row, v->u64());
    }
    // ipc is recomputed on emit, but its absence means the object
    // is not a schema row.
    const JsonValue *ipc = rv.member("ipc");
    if (!ipc || !ipc->isNumber()) {
        error = "row missing numeric field 'ipc'";
        return false;
    }
    // Optional per-tenant breakdown (composed-workload rows only).
    if (const JsonValue *tenants = rv.member("tenants")) {
        if (!tenantsFromJson(*tenants, row.metrics.tenants, error))
            return false;
    }
    out = std::move(row);
    return true;
}

std::string
ResultTable::toJson() const
{
    std::string out;
    out += "{\n  \"schema\": \"";
    out += schemaName();
    out += "\",\n  \"rows\": [";
    for (std::size_t i = 0; i < tableRows.size(); ++i) {
        out += i ? ",\n    " : "\n    ";
        out += rowToJson(tableRows[i]);
    }
    out += tableRows.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

std::string
ResultTable::toCsv() const
{
    std::string out;
    for (const std::string &name : csvHeader())
        out += (out.empty() ? "" : ",") + name;
    out += '\n';
    for (const ResultRow &r : tableRows) {
        for (const RowColumn &c : rowColumns()) {
            if (&c != &rowColumns().front())
                out += ',';
            out += csvField(c.text(r));
        }
        out += ',' + formatIpc(r.metrics.ipc());
        // The tenants column holds the same JSON array the JSON
        // emitter produces, CSV-quoted; plain rows leave it empty.
        out += ',';
        if (!r.metrics.tenants.empty())
            out += csvField(tenantsToJson(r));
        out += '\n';
    }
    return out;
}

bool
ResultTable::fromJson(const std::string &text, ResultTable &out,
                      std::string &error)
{
    JsonValue root;
    if (!parseJson(text, root, error))
        return false;
    if (!root.isObject()) {
        error = "top-level value is not an object";
        return false;
    }
    const JsonValue *schema = root.member("schema");
    if (!schema || !schema->isString() ||
        schema->string() != schemaName()) {
        error = "missing or unexpected schema";
        return false;
    }
    const JsonValue *rows = root.member("rows");
    if (!rows || !rows->isArray()) {
        error = "missing rows array";
        return false;
    }
    ResultTable table;
    for (const JsonValue &rv : rows->array()) {
        ResultRow row;
        if (!rowFromJson(rv, row, error))
            return false;
        table.appendRow(std::move(row));
    }
    out = std::move(table);
    return true;
}

bool
ResultTable::fromCsv(const std::string &text, ResultTable &out,
                     std::string &error)
{
    const std::vector<std::string> lines = splitCsvRecords(text);
    if (lines.empty()) {
        error = "empty csv";
        return false;
    }

    std::vector<std::string> header;
    if (!splitCsvLine(lines[0], header)) {
        error = "malformed csv header";
        return false;
    }
    const std::vector<std::string> expected = csvHeader();
    const std::size_t expected_cols = expected.size();
    if (header.size() != expected_cols) {
        error = "unexpected csv column count";
        return false;
    }
    for (std::size_t c = 0; c < expected_cols; ++c) {
        if (header[c] != expected[c]) {
            error = "unexpected csv header '" + header[c] + "'";
            return false;
        }
    }

    ResultTable table;
    for (std::size_t l = 1; l < lines.size(); ++l) {
        if (lines[l].empty())
            continue;
        std::vector<std::string> fields;
        if (!splitCsvLine(lines[l], fields) ||
            fields.size() != expected_cols) {
            error = "malformed csv row " + std::to_string(l);
            return false;
        }
        ResultRow row;
        for (std::size_t c = 0; c < rowColumns().size(); ++c) {
            const RowColumn &col = rowColumns()[c];
            const std::string &field = fields[c];
            if (col.str) {
                row.*col.str = field;
                continue;
            }
            // strtoull alone accepts "" (returns 0) and "-5" (wraps);
            // require a plain non-empty digit string.
            if (field.empty() ||
                field.find_first_not_of("0123456789") !=
                    std::string::npos) {
                error = "bad integer in csv row " + std::to_string(l);
                return false;
            }
            col.setNumber(row, std::strtoull(field.c_str(), nullptr, 10));
        }
        // The ipc column is recomputed on emit, but reject tokens
        // that are not numbers at all.
        if (!validIpcToken(fields[expected_cols - 2])) {
            error = "bad ipc in csv row " + std::to_string(l);
            return false;
        }
        // Trailing tenants column: empty for plain rows, otherwise
        // the JSON array tenantsToJson emitted.
        if (!fields.back().empty()) {
            JsonValue tenants;
            if (!parseJson(fields.back(), tenants, error) ||
                !tenantsFromJson(tenants, row.metrics.tenants,
                                 error)) {
                error = "bad tenants in csv row " +
                    std::to_string(l) + " (" + error + ")";
                return false;
            }
        }
        table.appendRow(std::move(row));
    }
    out = std::move(table);
    return true;
}

} // namespace c3d::exp
