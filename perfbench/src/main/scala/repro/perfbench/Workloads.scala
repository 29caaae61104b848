package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.columnar.{ColumnStore, ColumnarExec}
import repro.core._
import repro.graphsim.GraphflowSim
import repro.imdb.{ImdbData, JobQueries}
import repro.ldbc.{LdbcData, SnbQueries}
import repro.tpch.TpchQueries
import scala.collection.immutable.ListMap
import scala.collection.mutable

/** A database ready for queries. `store` is absent on the Spark substrate. */
final class Db(val cat: GrainCatalog, val store: Option[ColumnStore])

/** What an executor call returned, read only after the clock has stopped. */
final case class Result(cols: Seq[String], rows: Seq[Seq[Any]], counts: Seq[(String, Double)])

/** One configuration under test: an executor over the database.
  *
  * @param layer prefix of its per-layer counters (`exec`, `spark`, `gflow`)
  * @param grain the predefined-join switches it plans with; None for GraphflowSim
  */
abstract class Engine(val cfg: String, val layer: String, val grain: Option[GrainConfig]) {
  /** Runs `q`; the thunk summarises the result and is called after timing. */
  def run(q: Query): () => Result
}

final class ColumnarEngine(cfg: String, db: Db, g: GrainConfig)
    extends Engine(cfg, "exec", Some(g)) {
  private val exec = new ColumnarExec(db.store.get, db.cat, g)
  def run(q: Query): () => Result = {
    val (inter, m) = exec.run(q)
    () => Result(inter.schema, inter.rows.toSeq.map(_.toSeq), Seq(
      "scanned_rows" -> m.totalScanned.toDouble, "zones_skipped" -> m.zonesSkipped.toDouble,
      "hash_probes" -> m.probes.toDouble, "index_lookups" -> m.indexLookups.toDouble,
      "result_rows" -> inter.size.toDouble))
  }
}

final class SparkEngine(cfg: String, db: Db, g: GrainConfig)
    extends Engine(cfg, "spark", Some(g)) {
  private val exec = new SparkExec(db.cat, g)
  def run(q: Query): () => Result = {
    val (df, m) = exec.run(q)
    () => Result(df.columns.toSeq, df.collect().toSeq.map(_.toSeq), Seq(
      "sip_filters" -> (m.sipFilters + m.reverseSemijoins).toDouble,
      "rid_joins" -> m.ridJoins.toDouble, "scanned_rows" -> m.totalScanned.toDouble))
  }
}

final class GflowEngine(db: Db) extends Engine("gflow", "gflow", None) {
  private val gf = new GraphflowSim(db.store.get)
  def run(q: Query): () => Result = {
    val (inter, m) = gf.run(q)
    () => Result(inter.schema, inter.rows.toSeq.map(_.toSeq), Seq(
      "scanned_rows" -> m.scanned.toDouble, "index_lookups" -> m.indexLookups.toDouble,
      "extended_tuples" -> m.extendedTuples.toDouble,
      "property_reads" -> m.propertyReads.toDouble))
  }
}

/** Set-up step timer: each step is a span and adds to its running total. */
final class Steps(tracer: Tracer) {
  val ms: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap()
  def apply[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    val a = tracer.span(name)(body)
    ms(name) = ms.getOrElse(name, 0.0) + (System.nanoTime() - t0) / 1e6
    a
  }
}

/** A named benchmark workload: its data, queries and configurations.
  * `engines` lists the reference configuration (`duck`) first.
  */
abstract class Workload(val name: String) {
  /** Untimed rounds before the timed ones. After a single warm-up round the
    * columnar passes still ran 30 to 50 % slower for two more rounds, and
    * the Spark passes 10 to 20 % slower for one, while the JIT caught up.
    */
  def warmupRounds: Int = 3
  /** Whether one thread does all the work of a query; the queries of such
    * a workload run on a [[CpuRing]].
    */
  def serial: Boolean = true
  def queries: Seq[Query]
  def setup(spark: SparkSession, seed: Long, steps: Steps): Db
  def engines(db: Db): Seq[Engine]
}

/** A graph-shaped workload on the serial columnar substrate. */
abstract class ColumnarWorkload(name: String) extends Workload(name) {
  def tables(spark: SparkSession, seed: Long): ListMap[String, DataFrame]
  def pks: ListMap[String, Seq[String]]
  def predefs: Seq[PredefJoin]
  def extendedPairs: Seq[(String, String, String)]
  /** Whether GraphflowSim runs, so its value indices are built at set-up. */
  def withGflow: Boolean

  def setup(spark: SparkSession, seed: Long, steps: Steps): Db = {
    val cat = new GrainCatalog(spark)
    steps("catalog.register") {
      tables(spark, seed).foreach { case (n, df) => cat.register(n, df, pks(n)) }
    }
    steps("catalog.predefine")(predefs.foreach(cat.predefine))
    steps("catalog.freeze")(cat.freeze())
    val ext = extendedPairs.flatMap { case (t, a, b) => Seq((t, a) -> b, (t, b) -> a) }.toMap
    steps("catalog.rid_index") {
      predefs.foreach(pj => cat.buildRidIndex(pj.fTable, pj.fkCol, ext.get((pj.fTable, pj.fkCol))))
    }
    val store = new ColumnStore
    steps("store.load")(cat.tableNames.foreach(n => store.load(n, cat.ext(n))))
    steps("store.value_index") {
      Workloads.valueIndexCols(queries, cat, withGflow).foreach { case (t, c) => store(t).index(c) }
    }
    new Db(cat, Some(store))
  }
}

object Workloads {
  val Names: Seq[String] = Seq("snb-m", "job-lite", "tpch-spark")

  /** Data sizes of the timed runs; tests pass smaller ones. Set-up cost is
    * mostly Spark's per-job overhead, about 14 s per SNB-lite set-up at any
    * scale, and a run sets up twice, so the sizes are kept where a run fits
    * in about a minute.
    */
  val DefaultScale: Map[String, Double] =
    Map("snb-m" -> 1.0, "job-lite" -> 0.5, "tpch-spark" -> 0.01)

  def apply(name: String, scale: Double): Workload = name match {
    case "snb-m"      => new SnbM(scale)
    case "job-lite"   => new JobLite(scale)
    case "tpch-spark" => new TpchSpark(scale)
    case other        => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** The value indices the timed loop would otherwise build lazily: the
    * primary-key index behind the columnar point lookup, and (with
    * GraphflowSim) the index each EXTEND step probes.
    */
  def valueIndexCols(qs: Seq[Query], cat: GrainCatalog, gflow: Boolean): Seq[(String, String)] = {
    val pointLookups = for {
      q <- qs; r <- q.refs; p <- r.pred.toSeq; k <- cat.pk(r.table).toSeq
      if (p match {
        case Cmp(c, OpEq, LL(_)) => c == k
        case AndP(ps)            => ps.exists { case Cmp(c, OpEq, LL(_)) => c == k; case _ => false }
        case _                   => false
      })
    } yield (r.table, k)
    val extends_ = if (!gflow) Seq.empty else qs.flatMap { q =>
      val order = q.gfOrder.getOrElse(q.refs.map(_.alias))
      order.indices.drop(1).flatMap { i =>
        val bound = order.take(i).toSet
        val b = order(i)
        q.joins.find(j => (bound(j.a) && j.b == b) || (bound(j.b) && j.a == b))
          .map(j => (q.ref(b).table, j.colOf(b)))
      }
    }
    (pointLookups ++ extends_).distinct
  }
}

/** SNB-lite with the 25 SNB-M queries: duck, rid_only, grain and GraphflowSim.
  *
  * The 20 queries anchored at one person (`ParamPersonId`) run once for each
  * of [[SnbM.Persons]] persons spread over the id range, as LDBC SNB runs
  * each template with many substitution parameters. One person's two-hop
  * neighbourhood changes several-fold from seed to seed, and with it the
  * cost of every anchored query; summed over the persons it does not.
  */
final class SnbM(scale: Double) extends ColumnarWorkload("snb-m") {
  val queries: Seq[Query] = {
    val n = LdbcData.scale(scale).nPerson
    val persons = (0 until SnbM.Persons).map(i => 1 + (LdbcData.ParamPersonId - 1 + i.toLong * n / SnbM.Persons) % n)
    SnbQueries.queries(LdbcData.scale(scale)).flatMap { q =>
      if (!q.refs.exists(r => r.table == "person" && r.pred.exists(SnbM.anchored))) Seq(q)
      else persons.map(p => q.copy(name = s"${q.name}@$p", refs = q.refs.map(r =>
        if (r.table == "person") r.copy(pred = r.pred.map(SnbM.anchorAt(_, p))) else r)))
    }
  }
  def tables(spark: SparkSession, seed: Long) = LdbcData.tables(spark, scale, seed)
  def pks = LdbcData.pks
  def predefs = LdbcData.predefs
  def extendedPairs = LdbcData.extendedPairs
  def withGflow = true
  def engines(db: Db): Seq[Engine] = Seq(
    new ColumnarEngine("duck", db, GrainConfig.Duck),
    new ColumnarEngine("rid_only", db, GrainConfig.RidOnly),
    new ColumnarEngine("grain", db, GrainConfig.Full),
    new GflowEngine(db))
}

object SnbM {
  val Persons = 8

  private def isAnchor(c: String, l: Lit): Boolean =
    (c == "id" || c == "personid") && l == LL(LdbcData.ParamPersonId)

  def anchored(p: Pred): Boolean = p match {
    case Cmp(c, OpEq, l) => isAnchor(c, l)
    case AndP(ps)        => ps.exists(anchored)
    case _               => false
  }

  /** `p` with the anchor person's id replaced by `person`. */
  def anchorAt(p: Pred, person: Long): Pred = p match {
    case Cmp(c, OpEq, l) if isAnchor(c, l) => Cmp(c, OpEq, LL(person))
    case AndP(ps)                           => AndP(ps.map(anchorAt(_, person)))
    case other                              => other
  }
}

/** IMDB-lite with the 39 JOB-lite queries: duck and grain. */
final class JobLite(scale: Double) extends ColumnarWorkload("job-lite") {
  val queries: Seq[Query] = JobQueries.queries
  def tables(spark: SparkSession, seed: Long) = ImdbData.tables(spark, scale, seed)
  def pks = ImdbData.pks
  def predefs = ImdbData.predefs
  def extendedPairs = ImdbData.extendedPairs
  def withGflow = false
  def engines(db: Db): Seq[Engine] = Seq(
    new ColumnarEngine("duck", db, GrainConfig.Duck),
    new ColumnarEngine("grain", db, GrainConfig.Full))
}

/** TPC-H-lite on the Spark substrate: duck, rid_only and grain. A Spark query costs
  * about half a second of fixed overhead whatever the data size, so a pass
  * runs four of the 22 queries: a two-way RID join (Q14), three- and
  * four-way joins where forward sip fires (Q10, Q18) and one where it does
  * not (Q3). Tables are registered here rather than through
  * `TpchQueries.catalog` so that every table's generator seed follows the
  * benchmark seed; keys and predefined joins are the same. No RID index is
  * built.
  */
final class TpchSpark(sf: Double) extends Workload("tpch-spark") {
  val queries: Seq[Query] = Seq("Q3", "Q10", "Q14", "Q18").map(TpchQueries.byName)
  override def warmupRounds: Int = 2
  override def serial: Boolean = false
  def setup(spark: SparkSession, seed: Long, steps: Steps): Db = {
    val cat = new GrainCatalog(spark)
    val s = seed * 100
    steps("catalog.register") {
      Seq(
        "lineitem" -> SynthData.lineitem(spark, sf, s),
        "orders"   -> SynthData.orders(spark, sf, s + 20),
        "customer" -> SynthData.customer(spark, sf, s + 40),
        "part"     -> SynthData.part(spark, sf, s + 50),
        "supplier" -> SynthData.supplier(spark, sf, s + 60),
        "nation"   -> SynthData.nation(spark),
        "region"   -> SynthData.region(spark),
        "partsupp" -> SynthData.partsupp(spark, sf, s + 80),
      ).foreach { case (n, df) => cat.register(n, df, TpchQueries.pks(n)) }
    }
    steps("catalog.predefine")(TpchQueries.predefs.foreach(cat.predefine))
    steps("catalog.freeze")(cat.freeze())
    new Db(cat, None)
  }
  def engines(db: Db): Seq[Engine] = Seq(
    new SparkEngine("duck", db, GrainConfig.Duck),
    new SparkEngine("rid_only", db, GrainConfig.RidOnly),
    new SparkEngine("grain", db, GrainConfig.Full))
}
