package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle
import repro.core.QueryIR
import scala.jdk.CollectionConverters._

/** The benchmark's own checks, at tiny scale: the reference configuration
  * of every workload agrees with the DuckDB oracle, every configuration
  * agrees with the reference, and BENCHMARK.json names the metrics the
  * harness prints.
  *
  * Run with `sbt test` in this directory.
  */
class PerfbenchSpec extends AnyFunSuite with BeforeAndAfterAll {
  private lazy val spark: SparkSession = SparkSession.builder()
    .master("local[2]").appName("perfbench-test")
    .config("spark.sql.shuffle.partitions", "4")
    .config("spark.sql.autoBroadcastJoinThreshold", "-1")
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  private val TinyScale = Map("snb-m" -> 0.02, "job-lite" -> 0.01, "tpch-spark" -> 0.001)

  /** A DataFrame over a result's rows, typed from its values. */
  private def frame(r: Result): DataFrame = {
    val types = r.cols.indices.map { i =>
      r.rows.iterator.map(_(i)).find(_ != null) match {
        case Some(_: Long)   => LongType
        case Some(_: Double) => DoubleType
        case _               => StringType
      }
    }
    val schema = StructType(r.cols.zip(types).map { case (c, t) => StructField(c, t) })
    val rows = r.rows.map { row =>
      Row.fromSeq(row.zip(types).map {
        case (null, _)          => null
        case (v, StringType)    => v.toString
        case (v, _)             => v
      })
    }
    spark.createDataFrame(rows.asJava, schema)
  }

  for (name <- Workloads.Names) {
    test(s"$name: the reference matches the DuckDB oracle and every config matches the reference") {
      val wl = Workloads(name, TinyScale(name))
      val db = wl.setup(spark, seed = 3, new Steps(new Tracer))
      val engines = wl.engines(db)
      assert(engines.head.cfg == "duck")
      wl.queries.foreach { q =>
        val ref = engines.head.run(q)()
        val tables = q.refs.map(_.table).distinct.map(t => t -> db.cat.raw(t))
        Oracle.assertEquivalent(frame(ref), QueryIR.toSql(q, db.cat.rawMap), tables: _*)
        engines.tail.foreach { e =>
          assert(Main.digest(e.run(q)()) == Main.digest(ref), s"${e.cfg} differs from duck on ${q.name}")
        }
      }
      spark.catalog.clearCache()
    }
  }

  test("the seed changes the generated data and the same seed repeats it") {
    val wl = Workloads("tpch-spark", TinyScale("tpch-spark"))
    def orders(seed: Long) = {
      val db = wl.setup(spark, seed, new Steps(new Tracer))
      db.cat.raw("orders").collect().toSeq.map(_.toString)
    }
    assert(orders(1) == orders(1))
    assert(orders(1) != orders(2))
  }

  test("BENCHMARK.json lists exactly the metrics the harness reports") {
    val f = Seq(Paths.get("BENCHMARK.json"), Paths.get("../BENCHMARK.json")).find(Files.exists(_))
    assume(f.isDefined, "BENCHMARK.json not found")
    val json = new ObjectMapper().readTree(f.get.toFile)
    def metrics(key: String) =
      json.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq
    assert(metrics("end_to_end") == Main.EndToEnd.toSeq)
    assert(metrics("per_layer") == Main.PerLayer.toSeq)
    val listed = json.get("workloads").elements().asScala.map(_.get("name").asText).toSet
    assert(listed.subsetOf(Workloads.Names.toSet))
  }

  test("tail is the highest percentile with ten samples beyond it") {
    assert(Main.tail((1 to 10).map(_.toDouble)).isEmpty)
    assert(Main.tail((1 to 20).map(_.toDouble)).contains((50, 10.0)))
    assert(Main.tail((1 to 100).map(_.toDouble)).contains((90, 90.0)))
  }

  test("digest ignores row and column order but not values") {
    val a = Result(Seq("x", "y"), Seq(Seq(1L, "a"), Seq(2L, "b")), Nil)
    val b = Result(Seq("y", "x"), Seq(Seq("b", 2L), Seq("a", 1L)), Nil)
    val c = Result(Seq("x", "y"), Seq(Seq(1L, "a"), Seq(3L, "b")), Nil)
    assert(Main.digest(a) == Main.digest(b))
    assert(Main.digest(a) != Main.digest(c))
  }
}
