package repro.core

import repro.SparkSpec
import repro.data.ClusterData
import repro.eval.AMI
import scala.util.Random

class ClusterAutoSpec extends SparkSpec {

  test("coarsen merges dyadic children and preserves total mass") {
    val cells = Map(Vector(4, 5) -> 2.0, Vector(5, 4) -> 3.0, Vector(5, 5) -> 1.0,
                    Vector(8, 0) -> 7.0)
    val c = AdaWave.coarsen(cells)
    assert(c == Map(Vector(2, 2) -> 6.0, Vector(4, 0) -> 7.0))
    assert(c.values.sum == cells.values.sum)
  }

  test("coarsen twice equals a two-level shift") {
    val rnd = new Random(1)
    val cells = (0 until 100).map(_ => Vector(rnd.nextInt(64), rnd.nextInt(64)) -> 1.0)
      .groupMapReduce(_._1)(_._2)(_ + _)
    val twice = AdaWave.coarsen(AdaWave.coarsen(cells))
    assert(twice.keySet == cells.keySet.map(_.map(_ >> 2)))
    assert(math.abs(twice.values.sum - cells.values.sum) < 1e-9)
  }

  test("clusterAuto on 2-D equals the paper-default cluster() path") {
    val rnd = new Random(2)
    val x = Array.fill(800)(Array(0.2 + rnd.nextGaussian() * 0.02, 0.3 + rnd.nextGaussian() * 0.02)) ++
            Array.fill(800)(Array(0.8 + rnd.nextGaussian() * 0.02, 0.7 + rnd.nextGaussian() * 0.02))
    val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
    val a = AdaWave.clusterAuto(df, Seq("f0", "f1"), assignNoise = false)
    val b = AdaWave.cluster(df, Seq("f0", "f1"), AdaWaveConfig.auto(2))
    assert(a.threshold == b.threshold)
    assert(a.numClusters == b.numClusters)
  }

  /** Three tight 5-D Gaussian blobs, 300 points each, labeled 1..3. */
  private def blobs5d(): (Array[Array[Double]], Array[Int]) = {
    val rnd = new Random(3)
    val centers = Array.fill(3)(Array.fill(5)(rnd.nextDouble()))
    val pts = Array.newBuilder[Array[Double]]
    val truth = Array.newBuilder[Int]
    for (c <- 0 until 3; _ <- 0 until 300) {
      pts += Array.tabulate(5)(j => centers(c)(j) + rnd.nextGaussian() * 0.02)
      truth += c + 1
    }
    (pts.result(), truth.result())
  }

  /** 300 points spread over an 8-D cube: any fine grid would be all
    * singletons, so calibration must fall back to a coarse grid.
    */
  private def diffuse8d(): Array[Array[Double]] = {
    val rnd = new Random(4)
    Array.fill(300)(Array.fill(8)(rnd.nextDouble()))
  }

  private def frame(x: Array[Array[Double]]) = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))

  private def featureCols(d: Int) = (0 until d).map(i => s"f$i")

  test("clusterAuto recovers tight 5-D blobs at full auto-calibration") {
    val (x, truth) = blobs5d()
    val res = AdaWave.clusterAuto(frame(x), featureCols(5), assignNoise = true)
    val pred = Array.ofDim[Int](x.length)
    res.points.select("id", AdaWave.ClusterCol).collect()
      .foreach(r => pred(r.getLong(0).toInt) = r.getInt(1))
    assert(AMI.ami(truth, pred) > 0.9)
  }

  test("clusterAuto coarsens diffuse full-rank data instead of fragmenting it") {
    val res = AdaWave.clusterAuto(frame(diffuse8d()), featureCols(8), assignNoise = false)
    assert(res.numClusters >= 1)
    assert(res.points.count() == 300)
  }

  test("clusterAuto equals the stage sequence composed from the layer functions") {
    // The 8-D input stops at the 4-bin floor, the 5-D one on the n/3 rule.
    for ((x, expectedBins) <- Seq(blobs5d()._1 -> 32, diffuse8d() -> 4)) {
      val d = x.head.length
      val df = frame(x)
      val cols = featureCols(d)
      // Quantize at 64 bins, then coarsen while the grid is above 4 bins and
      // the next level keeps more than n/3 occupied cells.
      val q = Grid.quantize(df, cols, 64)
      val n = q.cells.values.sum
      var cells = q.cells
      var bins = 64
      while (bins > 4 && AdaWave.coarsen(cells).size > n / 3) {
        cells = AdaWave.coarsen(cells)
        bins /= 2
      }
      assert(bins == expectedBins, s"d = $d")
      val positive = Wavelet.transform(cells, d, Wavelet.Haar, 1).filter(_._2 > 0)
      val thr = Elbow.threshold(positive.values)
      val labels = ConnectedComponents.label(
        positive.collect { case (c, v) if v >= thr => c }.toSet, diagonal = false)

      val res = AdaWave.clusterAuto(df, cols, assignNoise = false)
      assert(res.threshold == thr, s"d = $d")
      assert(res.cellLabels == labels, s"d = $d")
    }
  }

  test("clusterAuto is deterministic") {
    val rnd = new Random(5)
    val x = Array.fill(500)(Array.fill(3)(rnd.nextGaussian()))
    val df = ClusterData.toDFn(spark, x, Array.fill(x.length)(0))
    val a = AdaWave.clusterAuto(df, Seq("f0", "f1", "f2"), assignNoise = false)
    val b = AdaWave.clusterAuto(df, Seq("f0", "f1", "f2"), assignNoise = false)
    assert(a.threshold == b.threshold && a.cellLabels == b.cellLabels)
  }
}
