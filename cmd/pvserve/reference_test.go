package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"pvoronoi"
)

// The insert routes' decoding as it was before decodeInsert, kept as the
// oracle FuzzDecodeInsertBody holds the hand-written decoder to: the body
// through encoding/json into request, then each insert through toObject.

// referenceDecodeInsert decodes an insert route's body the old way.
func referenceDecodeInsert(data []byte, reads field) (*request, error) {
	req := &request{k: 1}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(req); err != nil {
		return nil, fmt.Errorf("bad JSON body: %w", err)
	}
	if reads&fObject != 0 {
		o, err := req.toObject()
		if err != nil {
			return nil, err
		}
		req.objs = []*pvoronoi.Object{o}
	}
	if reads&fObjects != 0 {
		if len(req.Objects) == 0 {
			return nil, errors.New("missing or empty objects")
		}
		req.objs = make([]*pvoronoi.Object, len(req.Objects))
		for i := range req.Objects {
			o, err := req.Objects[i].toObject()
			if err != nil {
				return nil, fmt.Errorf("objects[%d]: %w", i, err)
			}
			req.objs[i] = o
		}
	}
	return req, nil
}

// toObject validates an insert request and builds the object it describes.
func (req *insertRequest) toObject() (*pvoronoi.Object, error) {
	if len(req.Region.Lo) == 0 || len(req.Region.Lo) != len(req.Region.Hi) {
		return nil, fmt.Errorf("region needs matching lo/hi")
	}
	for i := range req.Region.Lo {
		if req.Region.Lo[i] > req.Region.Hi[i] {
			return nil, fmt.Errorf("inverted region in dim %d", i)
		}
	}
	region := pvoronoi.NewRect(pvoronoi.Point(req.Region.Lo), pvoronoi.Point(req.Region.Hi))

	o := &pvoronoi.Object{ID: req.ID, Region: region}
	switch {
	case len(req.Instances) > 0:
		o.Instances = make([]pvoronoi.Instance, len(req.Instances))
		for i, in := range req.Instances {
			o.Instances[i] = pvoronoi.Instance{Pos: pvoronoi.Point(in.Pos), Prob: in.Prob}
		}
		if err := o.Validate(); err != nil {
			return nil, err
		}
	case req.Sample != nil:
		n := req.Sample.N
		if n <= 0 {
			n = 100
		}
		if n > maxSampleN {
			return nil, fmt.Errorf("sample.n %d exceeds the limit of %d", n, maxSampleN)
		}
		if strings.EqualFold(req.Sample.Kind, "gaussian") {
			o.Instances = pvoronoi.SampleGaussian(region, n, req.Sample.Seed)
		} else {
			o.Instances = pvoronoi.SampleUniform(region, n, req.Sample.Seed)
		}
	}
	return o, nil
}
