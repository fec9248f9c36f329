package serve

import (
	"context"
	"fmt"
	"net/http"
)

// Client calls for the control-plane endpoints only the tests drive;
// the programs (netscatter-load, the campaign executor, nsbench's
// fleet) use the methods in client.go.

// List returns every deployment's control-plane view.
func (c *Client) List(ctx context.Context) ([]DeploymentInfo, error) {
	var out []DeploymentInfo
	err := c.do(ctx, http.MethodGet, "/v1/deployments", nil, &out)
	return out, err
}

// Detail returns one deployment's control-plane view.
func (c *Client) Detail(ctx context.Context, id int64) (DeploymentInfo, error) {
	var out DeploymentInfo
	err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/deployments/%d", id), nil, &out)
	return out, err
}

// Run switches a tenant to continuous rounds.
func (c *Client) Run(ctx context.Context, id int64) (StepResponse, error) {
	var out StepResponse
	err := c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/deployments/%d/run", id), nil, &out)
	return out, err
}

// Pause stops continuous rounds and clears the backlog.
func (c *Client) Pause(ctx context.Context, id int64) (StepResponse, error) {
	var out StepResponse
	err := c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/deployments/%d/pause", id), nil, &out)
	return out, err
}

// Configure toggles soft combining / adversity on a live tenant.
func (c *Client) Configure(ctx context.Context, id int64, req ConfigRequest) (DeploymentInfo, error) {
	var out DeploymentInfo
	err := c.do(ctx, http.MethodPost, fmt.Sprintf("/v1/deployments/%d/config", id), req, &out)
	return out, err
}
